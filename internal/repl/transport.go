package repl

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// LocalLink ships extents to a replica in the same process — zero-copy
// apart from the replica's own persistence, used by tests and by
// doramon's in-process read replica.
type LocalLink struct{ R *Replica }

// Expected implements Link.
func (l LocalLink) Expected() (uint64, error) { return l.R.Expected(), nil }

// Send implements Link.
func (l LocalLink) Send(base uint64, data []byte) (uint64, error) {
	return l.R.Deliver(base, data)
}

// Close implements Link.
func (l LocalLink) Close() error { return nil }

// The TCP wire protocol, for the two-process harness:
//
//	server → client:  u64 expected            (handshake)
//	client → server:  u64 base, u32 len, data (one frame per extent)
//	server → client:  u64 ack | u64 maxuint64 followed by u32 len + error text
//
// All integers are big-endian. The primary dials the replica.

// Serve accepts one primary connection at a time on ln and feeds frames
// into r. It returns when the listener closes; per-connection errors end
// that connection only.
func Serve(ln net.Listener, r *Replica) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		serveConn(conn, r)
	}
}

func serveConn(conn net.Conn, r *Replica) {
	defer conn.Close()
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], r.Expected())
	if _, err := conn.Write(u64[:]); err != nil {
		return
	}
	var hdr [12]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		base := binary.BigEndian.Uint64(hdr[:8])
		n := binary.BigEndian.Uint32(hdr[8:])
		data := make([]byte, n)
		if _, err := io.ReadFull(conn, data); err != nil {
			return
		}
		ack, err := r.Deliver(base, data)
		if err != nil {
			var rep [12]byte
			binary.BigEndian.PutUint64(rep[:8], ^uint64(0))
			msg := []byte(err.Error())
			binary.BigEndian.PutUint32(rep[8:], uint32(len(msg)))
			conn.Write(rep[:])
			conn.Write(msg)
			return
		}
		binary.BigEndian.PutUint64(u64[:], ack)
		if _, err := conn.Write(u64[:]); err != nil {
			return
		}
	}
}

// tcpLink is the primary-side Link over one TCP connection.
type tcpLink struct {
	mu       sync.Mutex
	conn     net.Conn
	expected uint64
}

// Dial connects to a replica served by Serve and completes the
// handshake, returning a Link ready for Shipper.AddReplica.
func Dial(addr string) (Link, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	var u64 [8]byte
	if _, err := io.ReadFull(conn, u64[:]); err != nil {
		conn.Close()
		return nil, err
	}
	return &tcpLink{conn: conn, expected: binary.BigEndian.Uint64(u64[:])}, nil
}

// Expected implements Link.
func (l *tcpLink) Expected() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.expected, nil
}

// Send implements Link.
func (l *tcpLink) Send(base uint64, data []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var hdr [12]byte
	binary.BigEndian.PutUint64(hdr[:8], base)
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(data)))
	if _, err := l.conn.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := l.conn.Write(data); err != nil {
		return 0, err
	}
	var rep [8]byte
	if _, err := io.ReadFull(l.conn, rep[:]); err != nil {
		return 0, err
	}
	ack := binary.BigEndian.Uint64(rep[:])
	if ack == ^uint64(0) {
		var ln [4]byte
		if _, err := io.ReadFull(l.conn, ln[:]); err != nil {
			return 0, err
		}
		msg := make([]byte, binary.BigEndian.Uint32(ln[:]))
		if _, err := io.ReadFull(l.conn, msg); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("repl: replica refused extent: %s", msg)
	}
	return ack, nil
}

// Close implements Link.
func (l *tcpLink) Close() error { return l.conn.Close() }
