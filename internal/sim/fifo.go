package sim

// FIFO is a growable ring buffer. It grows by doubling when full and
// never shrinks, so once it has reached its working size Push and Pop
// allocate nothing. The queue's lanes hold their events in FIFOs, and the
// timing models park fixed-delay payloads in them: an event whose
// payloads are consumed in the order they were scheduled needs no slot
// index in its argument.
//
// The zero value is ready to use.
type FIFO[T any] struct {
	buf  []T // length zero or a power of two
	head int
	n    int
}

// Len returns the number of queued values.
func (f *FIFO[T]) Len() int { return f.n }

// Push adds a slot at the back and returns it for the caller to fill:
// *f.Push() = v. Filling the slot in place spares the hot paths a copy of
// a large T through the stack, which a by-value argument to this
// non-inlined method would cost.
func (f *FIFO[T]) Push() *T {
	if f.n == len(f.buf) {
		f.grow()
	}
	slot := &f.buf[(f.head+f.n)&(len(f.buf)-1)]
	f.n++
	return slot
}

// At returns the slot of the i-th oldest value: At(0) holds the one Pop
// would return. i must be below Len.
func (f *FIFO[T]) At(i int) *T { return &f.buf[(f.head+i)&(len(f.buf)-1)] }

// Back returns the newest value. The FIFO must not be empty.
func (f *FIFO[T]) Back() T { return f.buf[(f.head+f.n-1)&(len(f.buf)-1)] }

// Pop removes and returns the oldest value, zeroing its slot so pooled
// pointers don't pin garbage. Pop panics on an empty FIFO.
func (f *FIFO[T]) Pop() T {
	if f.n == 0 {
		panic("sim: Pop from empty FIFO")
	}
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v
}

func (f *FIFO[T]) grow() {
	size := 2 * len(f.buf)
	if size == 0 {
		size = 16
	}
	grown := make([]T, size)
	for i := 0; i < f.n; i++ {
		grown[i] = f.buf[(f.head+i)&(len(f.buf)-1)]
	}
	f.buf, f.head = grown, 0
}
