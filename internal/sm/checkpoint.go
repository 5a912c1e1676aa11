package sm

import (
	"encoding/binary"
	"fmt"

	"dora/internal/catalog"
	"dora/internal/page"
	"dora/internal/wal"
)

// Checkpoint bounds recovery's redo work: it captures a redo point,
// flushes every dirty page, and logs a KCheckpoint record carrying the
// redo point. On restart, redo can skip all records below the last
// checkpoint's redo point — any update logged before it reached disk
// with its page during the flush (the flush waits out in-flight page
// latches on unstamped pages and hardens owner-stamped pages through
// the copy-on-write snapshot ship — a consistent image at a known LSN
// either way — and page LSNs make late redo idempotent anyway).
//
// The checkpoint is fuzzy: transactions keep running while it executes.
// Analysis and undo still scan the whole log, so in-flight transactions
// spanning the checkpoint roll back correctly.
//
// The record's Redo payload carries each table's heap page set at flush
// time. Restart and replica bootstrap normally learn page attachment from
// the physical records themselves, but once the log is truncated those
// records are gone — the checkpoint's attachment map is what lets a
// truncated log still reconstruct which pages belong to which heap.
func (s *SM) Checkpoint() (wal.LSN, error) {
	redoPoint := s.Log.Next()
	if err := s.Pool.FlushAll(); err != nil {
		return 0, err
	}
	lsn := s.Log.Append(&wal.Record{
		Kind: wal.KCheckpoint,
		Key:  int64(redoPoint),
		Redo: s.encodeAttachments(),
	})
	if err := s.Log.Force(lsn); err != nil {
		return 0, err
	}
	// Only a hardened checkpoint may raise the truncation floor.
	for {
		cur := s.lastCkptRedo.Load()
		if cur >= redoPoint || s.lastCkptRedo.CompareAndSwap(cur, redoPoint) {
			break
		}
	}
	return lsn, nil
}

// LastCheckpointRedo returns the redo point of the latest hardened
// checkpoint, or 0 if none has been taken.
func (s *SM) LastCheckpointRedo() uint64 { return s.lastCkptRedo.Load() }

// encodeAttachments serializes every table's heap page set: per table a
// u32 table id, u32 page count, and the u32 page ids.
func (s *SM) encodeAttachments() []byte {
	var out []byte
	for _, tbl := range s.Cat.Tables() {
		pages := tbl.Heap.Pages()
		out = binary.LittleEndian.AppendUint32(out, tbl.ID)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(pages)))
		for _, pid := range pages {
			out = binary.LittleEndian.AppendUint32(out, uint32(pid))
		}
	}
	return out
}

// applyAttachments re-attaches a checkpoint record's page map: every page
// is allocated on the disk view (if needed) and attached to its heap.
func (s *SM) applyAttachments(payload []byte) error {
	for len(payload) > 0 {
		if len(payload) < 8 {
			return fmt.Errorf("sm: short checkpoint attachment map")
		}
		tid := binary.LittleEndian.Uint32(payload)
		n := int(binary.LittleEndian.Uint32(payload[4:]))
		payload = payload[8:]
		if len(payload) < 4*n {
			return fmt.Errorf("sm: short checkpoint attachment map")
		}
		tbl := s.Cat.TableByID(tid)
		if tbl == nil {
			return fmt.Errorf("sm: checkpoint references unknown table %d", tid)
		}
		for i := 0; i < n; i++ {
			if err := s.attach(tbl, page.ID(binary.LittleEndian.Uint32(payload[4*i:]))); err != nil {
				return err
			}
		}
		payload = payload[4*n:]
	}
	return nil
}

// attach makes page pid exist on the disk and belong to tbl's heap.
func (s *SM) attach(tbl *catalog.Table, pid page.ID) error {
	for int(pid) >= s.Disk.NumPages() {
		if _, err := s.Disk.Allocate(); err != nil {
			return err
		}
	}
	tbl.Heap.AttachPage(pid)
	return nil
}
