package walker

import "math/bits"

// walkIndex is the Pending Translation Scoreboard's lookup structure: for
// every VPN with a walk in flight, the number of walks in flight for it
// and the lowest-index walker among them, which is the walker a merge
// targets. A walker leaves the index when its walk lands, before it
// drains its PRMB: a request merged into a draining walker would never
// be delivered. It is an open-addressed table with linear probing, a
// multiplicative hash and backward-shift deletion. At most one entry per
// walker is live, and the table has at least four slots per walker, so
// probes stay short; it is sized once and never allocates again.
type walkIndex struct {
	slots []indexSlot
	shift uint   // 64 - log2(len(slots)): the hash keeps the top bits
	mask  uint64 // len(slots) - 1
}

// indexSlot is one table entry; walks == 0 marks it empty.
type indexSlot struct {
	vpn    uint64
	walks  int32 // walks in flight for vpn
	lowest int32 // lowest index of a walker walking vpn
}

func newWalkIndex(walkers int) walkIndex {
	n := 4 * walkers
	if n < 8 {
		n = 8
	}
	n = 1 << bits.Len(uint(n-1)) // round up to a power of two
	return walkIndex{
		slots: make([]indexSlot, n),
		shift: uint(64 - bits.TrailingZeros(uint(n))),
		mask:  uint64(n - 1),
	}
}

// home is vpn's preferred slot: Fibonacci hashing spreads the runs of
// consecutive VPNs a DMA tile touches across the table.
func (x *walkIndex) home(vpn uint64) uint64 {
	return (vpn * 0x9E3779B97F4A7C15) >> x.shift
}

// find returns the index of the slot holding vpn, or -1 when no walk is
// in flight for it.
func (x *walkIndex) find(vpn uint64) int {
	for i := x.home(vpn); ; i = (i + 1) & x.mask {
		if s := &x.slots[i]; s.walks == 0 {
			return -1
		} else if s.vpn == vpn {
			return int(i)
		}
	}
}

// add records a walk of vpn started on walker w and reports whether
// another walk of vpn was already in flight.
func (x *walkIndex) add(vpn uint64, w int) bool {
	i := x.home(vpn)
	for ; x.slots[i].walks != 0; i = (i + 1) & x.mask {
		if s := &x.slots[i]; s.vpn == vpn {
			s.walks++
			if int32(w) < s.lowest {
				s.lowest = int32(w)
			}
			return true
		}
	}
	x.slots[i] = indexSlot{vpn: vpn, walks: 1, lowest: int32(w)}
	return false
}

// remove records that one walk of the VPN in slot i (from find) is no
// longer in flight. It reports whether other walks of it remain; the
// caller must then fix the slot's lowest walker if the finished walk was
// it.
func (x *walkIndex) remove(i int) bool {
	if s := &x.slots[i]; s.walks > 1 {
		s.walks--
		return true
	}
	// Backward-shift delete: move each later member of the probe run into
	// the hole when the hole lies between its home and its slot, so every
	// entry stays reachable from its home without tombstones.
	hole := uint64(i)
	for j := (hole + 1) & x.mask; x.slots[j].walks != 0; j = (j + 1) & x.mask {
		if h := x.home(x.slots[j].vpn); (j-h)&x.mask >= (j-hole)&x.mask {
			x.slots[hole] = x.slots[j]
			hole = j
		}
	}
	x.slots[hole] = indexSlot{}
	return false
}
