// Package tuple defines the record model shared by the storage manager
// and both execution engines: typed values, records (ordered field
// lists), and their binary encoding into page slots.
package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Type enumerates the supported field types.
type Type uint8

const (
	// TInt is a 64-bit signed integer.
	TInt Type = iota + 1
	// TString is a variable-length byte string.
	TString
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TInt:
		return "int"
	case TString:
		return "string"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Value is a tagged union of the supported types.
type Value struct {
	Type Type
	Int  int64
	Str  string
}

// I returns an integer value.
func I(v int64) Value { return Value{Type: TInt, Int: v} }

// S returns a string value.
func S(s string) Value { return Value{Type: TString, Str: s} }

// Equal reports whether two values have the same type and content.
func (v Value) Equal(o Value) bool {
	if v.Type != o.Type {
		return false
	}
	switch v.Type {
	case TInt:
		return v.Int == o.Int
	case TString:
		return v.Str == o.Str
	}
	return false
}

// String implements fmt.Stringer.
func (v Value) String() string {
	switch v.Type {
	case TInt:
		return strconv.FormatInt(v.Int, 10)
	case TString:
		return strconv.Quote(v.Str)
	default:
		return "<nil>"
	}
}

// Record is an ordered list of field values.
type Record []Value

// Clone returns a deep copy of r.
func (r Record) Clone() Record {
	out := make(Record, len(r))
	copy(out, r)
	return out
}

// Equal reports field-wise equality.
func (r Record) Equal(o Record) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// String renders the record as (v1, v2, ...).
func (r Record) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range r {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// ErrCorrupt reports an undecodable record image.
var ErrCorrupt = errors.New("tuple: corrupt record encoding")

// Encode serializes r. Layout: uint16 field count, then per field a type
// byte followed by 8 bytes (int) or uint16 length + bytes (string).
func Encode(r Record) []byte { return AppendEncode(nil, r) }

// AppendEncode appends r's encoding to dst and returns the extended
// slice; with a reused dst of sufficient capacity it allocates nothing.
func AppendEncode(dst []byte, r Record) []byte {
	n := 2
	for _, v := range r {
		switch v.Type {
		case TInt:
			n += 1 + 8
		case TString:
			n += 1 + 2 + len(v.Str)
		}
	}
	start := len(dst)
	dst = append(dst, make([]byte, n)...)
	out := dst[start:]
	binary.LittleEndian.PutUint16(out, uint16(len(r)))
	w := 2
	for _, v := range r {
		out[w] = byte(v.Type)
		w++
		switch v.Type {
		case TInt:
			binary.LittleEndian.PutUint64(out[w:], uint64(v.Int))
			w += 8
		case TString:
			binary.LittleEndian.PutUint16(out[w:], uint16(len(v.Str)))
			w += 2
			copy(out[w:], v.Str)
			w += len(v.Str)
		}
	}
	return dst
}

// Decode parses a record image produced by Encode.
func Decode(b []byte) (Record, error) { return DecodeInto(nil, b) }

// DecodeInto parses a record image produced by Encode into dst's backing
// array (reallocating only when it is too small) and returns the record.
// An all-integer image decodes into a reused dst without allocating;
// each string field still allocates its string.
func DecodeInto(dst Record, b []byte) (Record, error) {
	if len(b) < 2 {
		return nil, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint16(b))
	r := dst[:0]
	if cap(r) < n {
		r = make(Record, 0, n)
	}
	w := 2
	for i := 0; i < n; i++ {
		if w >= len(b) {
			return nil, ErrCorrupt
		}
		t := Type(b[w])
		w++
		switch t {
		case TInt:
			if w+8 > len(b) {
				return nil, ErrCorrupt
			}
			r = append(r, I(int64(binary.LittleEndian.Uint64(b[w:]))))
			w += 8
		case TString:
			if w+2 > len(b) {
				return nil, ErrCorrupt
			}
			ln := int(binary.LittleEndian.Uint16(b[w:]))
			w += 2
			if w+ln > len(b) {
				return nil, ErrCorrupt
			}
			r = append(r, S(string(b[w:w+ln])))
			w += ln
		default:
			return nil, fmt.Errorf("%w: field %d has type %d", ErrCorrupt, i, t)
		}
	}
	return r, nil
}
