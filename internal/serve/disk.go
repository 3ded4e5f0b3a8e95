package serve

import (
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"unsafe"

	"neummu/internal/exp"
	"neummu/internal/store"
)

// This file is the glue between a cell and the durable tier
// (internal/store). The store speaks bytes; this file fixes the byte
// formats. A cell's durable identity is CellHash64 — a pure function of
// point and effort caps, stable across processes and restarts, unlike the
// per-process map hashing the RAM cache keys on — plus canonical JSON key
// bytes as collision defense. The value bytes are the CellValue's JSON,
// which round-trips bit-exactly (ints exactly, float64 via shortest-form
// encoding), so a disk-warm sweep body is byte-identical to a cold one.
// SaveCell writes them with json.Marshal; LoadCell reads them back with
// decodeCell, which accepts only the layout json.Marshal writes.
//
// LoadCell and SaveCell are the whole codec, shared by a worker's cache
// miss path and the cluster coordinator's store, so both write the same
// file for the same cell.

// storeKey is the canonical durable identity of one cell, serialized as
// the store entry's key bytes. It reuses WirePoint — the same stable,
// string-enum encoding the cluster wire protocol uses — so the key never
// changes meaning when internal enums renumber.
type storeKey struct {
	Point     WirePoint `json:"point"`
	RepeatCap int       `json:"repeat_cap"`
	TileCap   int       `json:"tile_cap"`
}

// newCellKey keys point p under a harness's normalized options: the one
// place a cellKey is built, for the RAM cache and the durable tier alike.
func newCellKey(opts exp.Options, p exp.Point) cellKey {
	return cellKey{point: p, effort: opts.Effort.Identity()}
}

func storeKeyBytes(k cellKey) []byte {
	e := k.effort
	b, err := json.Marshal(storeKey{
		Point: ToWire(k.point), RepeatCap: e.RepeatCap, TileCap: e.TileCap,
	})
	if err != nil {
		// Marshal of plain structs with string/int/bool fields cannot fail.
		panic("serve: encoding store key: " + err.Error())
	}
	return b
}

// LoadCell reads point p's result under h's effort from st. Every false
// return means "not stored, compute it": a nil store, absent, evicted,
// quarantined as corrupt, or a stale value schema.
func LoadCell(st *store.Store, h *exp.Harness, p exp.Point) (CellValue, bool) {
	return loadCell(st, newCellKey(h.Options(), p))
}

// SaveCell persists point p's result under h's effort to st (a no-op for
// a nil store). The store's write-behind queue makes this a non-blocking
// enqueue, and a full queue drops the write: the cell is simply computed
// again the next time it is asked for.
func SaveCell(st *store.Store, h *exp.Harness, p exp.Point, v CellValue) {
	saveCell(st, newCellKey(h.Options(), p), v)
}

func loadCell(st *store.Store, k cellKey) (CellValue, bool) {
	if st == nil {
		return CellValue{}, false
	}
	raw, ok := st.Get(CellHash64(k.point, k.effort), storeKeyBytes(k))
	if !ok {
		return CellValue{}, false
	}
	v, ok := decodeCell(raw)
	if !ok {
		// Checksum-valid bytes in any other layout (an older schema, say)
		// are a miss: recompute, and the write-behind Put overwrites the
		// stale entry.
		st.Reject()
		return CellValue{}, false
	}
	return v, true
}

func saveCell(st *store.Store, k cellKey, v CellValue) {
	if st == nil {
		return
	}
	raw, err := json.Marshal(v)
	if err != nil {
		panic("serve: encoding store value: " + err.Error())
	}
	st.Put(CellHash64(k.point, k.effort), storeKeyBytes(k), raw)
}

// The value decoder. A disk hit should cost a file read and a CRC check,
// and json.Unmarshal of one CellValue (40 numbers, found by reflection
// and key search) cost several times the read. decodeCell instead walks
// the one layout json.Marshal(CellValue) writes, derived once from the
// json tags, and stores each number at its field's offset.

// leaf is one number of the canonical value layout.
type leaf struct {
	lit  string       // the bytes before the number: braces, commas, the quoted key, ':'
	kind reflect.Kind // Int64 or Float64
	off  uintptr      // the field's offset in the decoded struct
}

// cellLeaves and cellEnd are CellValue's canonical JSON: its leaves in
// order, then the closing braces. They are derived from the json tags of
// CellValue and counters.Bundle. A field the layout cannot spell exactly
// (untagged, omitempty, or not a number or struct of numbers) panics at
// start-up instead of being skipped, so a new counter is decoded the day
// it is added.
var cellLeaves, cellEnd = flatten(nil, reflect.VisibleFields(reflect.TypeOf(CellValue{})), 0, "")

// flatten appends the leaves of the struct whose fields are fs, at
// offset off, with lit the bytes before its opening brace. It returns
// the bytes still owed after the last leaf: the closing braces.
func flatten(leaves []leaf, fs []reflect.StructField, off uintptr, lit string) ([]leaf, string) {
	for i, f := range fs {
		// A key of lowercase letters, digits and '_' is written verbatim,
		// and a tag with options (omitempty) has a ',' and is refused.
		name := f.Tag.Get("json")
		if !f.IsExported() || name == "" || strings.Trim(name, "abcdefghijklmnopqrstuvwxyz0123456789_") != "" {
			panic("serve: value field " + f.Name + " has no canonical encoding")
		}
		if i == 0 {
			lit += "{"
		} else {
			lit += ","
		}
		lit += `"` + name + `":`
		switch k := f.Type.Kind(); k {
		case reflect.Struct:
			leaves, lit = flatten(leaves, reflect.VisibleFields(f.Type), off+f.Offset, lit)
		case reflect.Int64, reflect.Float64:
			leaves = append(leaves, leaf{lit, k, off + f.Offset})
			lit = ""
		default:
			panic("serve: value field " + f.Name + " is not a number")
		}
	}
	return leaves, lit + "}"
}

// decodeCell decodes value bytes in the layout json.Marshal(CellValue)
// writes: keys in declaration order, no whitespace, every counter
// present. A number may be any JSON number its field's type accepts, and
// is read as encoding/json reads it (strconv semantics), so whatever
// decodeCell accepts, json.Unmarshal decodes to the same value
// (FuzzLoadCell). Any other bytes are refused. The offsets and kinds
// come from reflection over CellValue, so every store is to a field of
// the right type.
func decodeCell(b []byte) (CellValue, bool) {
	var v CellValue
	for _, f := range cellLeaves {
		if len(b) < len(f.lit) || string(b[:len(f.lit)]) != f.lit {
			return CellValue{}, false
		}
		b = b[len(f.lit):]
		p := unsafe.Add(unsafe.Pointer(&v), f.off)
		var n int
		var ok bool
		if f.kind == reflect.Float64 {
			n, ok = parseFloat(b, (*float64)(p))
		} else {
			n, ok = parseInt(b, (*int64)(p))
		}
		if !ok {
			return CellValue{}, false
		}
		b = b[n:]
	}
	if string(b) != cellEnd {
		return CellValue{}, false
	}
	return v, true
}

// The number readers read the number at the front of b into *x and
// return its length. Each accepts what json.Unmarshal accepts for its
// field type and reads it the same way (strconv semantics); whatever
// follows a number is the next literal's to accept or refuse.

// parseInt reads a JSON integer, -?(0|[1-9][0-9]*), in int64 range.
func parseInt(b []byte, x *int64) (int, bool) {
	neg := len(b) > 0 && b[0] == '-'
	d := 0
	if neg {
		d = 1
	}
	u, n, ok := digits(b, d)
	if !ok {
		return 0, false
	}
	if n-d > maxFastDigits {
		v, err := strconv.ParseInt(string(b[:n]), 10, 64)
		*x = v
		return n, err == nil
	}
	*x = int64(u)
	if neg {
		*x = -*x
	}
	return n, true
}

// maxFastDigits is the most decimal digits digits may accumulate without
// overflow checks: 10^18-1 fits every integer field type. Longer runs
// are parsed again by strconv, which checks the range.
const maxFastDigits = 18

// digits reads the run of digits starting at b[i], refusing an empty run
// and a leading zero, and returns the end of the run and, when the run is
// at most maxFastDigits long, its value.
func digits(b []byte, i int) (u uint64, end int, ok bool) {
	start := i
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		u = u*10 + uint64(b[i]-'0')
	}
	if i == start || (b[start] == '0' && i > start+1) {
		return 0, 0, false
	}
	return u, i, true
}

// parseFloat reads any JSON number as a float64.
func parseFloat(b []byte, x *float64) (int, bool) {
	n := numberLen(b)
	if n == 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(b[:n]), 64)
	*x = v
	return n, err == nil
}

// numberLen returns the length of the JSON number at the front of b
// (-?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?), or 0 if there is none.
func numberLen(b []byte) int {
	i := 0
	if len(b) > 0 && b[0] == '-' {
		i = 1
	}
	_, i, ok := digits(b, i)
	if !ok {
		return 0
	}
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return 0
		}
		i = j
	}
	return i
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
