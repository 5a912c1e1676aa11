package buffer

import (
	"fmt"
	"sync"

	"dora/internal/page"
)

// CheckedDisk is a Disk that refuses to move a page back in time: a
// WritePage whose page LSN is below the LSN of the stored image fails.
// A pool writes a page only from its one frame, whose LSN never falls,
// so such a write is a lost update — a stale image overwriting a newer
// one. Tests wrap their disks in it to catch that at the write.
type CheckedDisk struct {
	Disk
	mu     sync.Mutex
	stored page.Page // scratch image of the page being overwritten
	err    error     // the first refused write
}

// NewCheckedDisk wraps d.
func NewCheckedDisk(d Disk) *CheckedDisk { return &CheckedDisk{Disk: d} }

// WritePage implements Disk. The check and the write are one step, so
// two racing writes of a page cannot both pass against the old image.
func (d *CheckedDisk) WritePage(id page.ID, src *page.Page) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.Disk.ReadPage(id, &d.stored); err != nil {
		return err
	}
	if src.LSN() < d.stored.LSN() {
		err := fmt.Errorf("buffer: stale write of page %d: LSN %d below the stored %d", id, src.LSN(), d.stored.LSN())
		if d.err == nil {
			d.err = err
		}
		return err
	}
	return d.Disk.WritePage(id, src)
}

// Err returns the first write the disk refused, or nil. Callers that
// drop write-back errors (the cleaner daemon) still surface here.
func (d *CheckedDisk) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}
