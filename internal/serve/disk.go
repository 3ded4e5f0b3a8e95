package serve

import (
	"encoding/json"

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
	// Sampled identity, omitted for exact cells so every pre-redesign
	// store entry keeps its exact key bytes (and stays readable after
	// the upgrade). Epoched is written from Sampled: sampled cells run on
	// cold-epoch machines, and the field keeps their key bytes unchanged.
	Sampled  bool    `json:"sampled,omitempty"`
	TargetCI float64 `json:"target_ci,omitempty"`
	Epoched  bool    `json:"epoched,omitempty"`
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
		Sampled: e.Sampled(), TargetCI: e.TargetCI, Epoched: e.Sampled(),
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
	var v CellValue
	if err := json.Unmarshal(raw, &v); err != nil {
		// Checksum-valid bytes that no longer decode as a CellValue (an
		// older schema, say) are treated as a miss: recompute and let the
		// write-behind Put overwrite the stale entry.
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
