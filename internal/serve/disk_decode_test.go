package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"neummu/internal/core"
	"neummu/internal/exp"
	"neummu/internal/vm"
)

// genCell builds a CellValue from fuzz inputs: counters drawn from seed,
// mixing the int64 extremes with random magnitudes, and perf as given
// (negative zero and exponent-form floats come in through the seed
// corpus).
func genCell(seed int64, perf float64) CellValue {
	r := rand.New(rand.NewSource(seed))
	ints := []int64{0, 1, -1, math.MaxInt64, math.MinInt64}
	next := func() int64 {
		if i := r.Intn(len(ints) + 2); i < len(ints) {
			return ints[i]
		}
		return r.Int63() >> uint(r.Intn(63)) * (1 - 2*int64(r.Intn(2)))
	}
	v := CellValue{Cycles: next(), Translations: next(), Perf: perf}
	b := reflect.ValueOf(&v.Counters).Elem()
	for i := 0; i < b.NumField(); i++ {
		b.Field(i).SetInt(next())
	}
	return v
}

// sameCell fails unless got and want are the same value bit for bit:
// equal fields, and floats equal in sign too (json.Marshal spells -0 and
// 0 apart, and its shortest form round-trips every other float exactly).
func sameCell(t *testing.T, got, want CellValue) {
	t.Helper()
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if !reflect.DeepEqual(got, want) || !bytes.Equal(g, w) {
		t.Fatalf("decoded\n%s\nwant\n%s", g, w)
	}
}

// FuzzLoadCell pins loadCell's value decoder to encoding/json from both
// sides: the canonical bytes of any CellValue decode to that value, and any bytes at all are either refused or decode to
// exactly what json.Unmarshal makes of them.
func FuzzLoadCell(f *testing.F) {
	negZero := math.Copysign(0, -1)
	for _, v := range []CellValue{
		genCell(1, 0.5),
		genCell(2, negZero),
		genCell(3, 5e-324),
		genCell(4, math.MaxFloat64),
	} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, int64(0), 1.0)
	}
	f.Add([]byte(`{"cycles":-0}`), int64(4), 1.5e-300)
	f.Add([]byte(`{"cycles":1e3,"translations":01}`), int64(5), math.Inf(1))
	f.Fuzz(func(t *testing.T, raw []byte, seed int64, perf float64) {
		if got, ok := decodeCell(raw); ok {
			var want CellValue
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatalf("accepted %q, which json.Unmarshal refuses: %v", raw, err)
			}
			sameCell(t, got, want)
		}
		v := genCell(seed, perf)
		b, err := json.Marshal(v)
		if err != nil {
			return // NaN or ±Inf: json.Marshal refuses them, so no store holds them
		}
		got, ok := decodeCell(b)
		if !ok {
			t.Fatalf("refused canonical bytes %s", b)
		}
		sameCell(t, got, v)
	})
}

// TestDecodeCellRefusesOtherLayouts: valid JSON for the same value in
// any layout but json.Marshal's is a miss, and so is an entry missing a
// counter or carrying the sampled audit older builds wrote (an older
// schema).
func TestDecodeCellRefusesOtherLayouts(t *testing.T) {
	canon, _ := json.Marshal(genCell(7, 0.25))
	if _, ok := decodeCell(canon); !ok {
		t.Fatalf("refused canonical %s", canon)
	}
	var indented bytes.Buffer
	json.Indent(&indented, canon, "", " ")
	for name, b := range map[string][]byte{
		"indented":        indented.Bytes(),
		"trailing space":  append(append([]byte(nil), canon...), ' '),
		"missing counter": bytes.Replace(canon, []byte(`"faults":`), []byte(`"faultz":`), 1),
		"sampled audit":   append(append([]byte(nil), canon[:len(canon)-1]...), `,"sampled":{"population":4,"simulated":2,"seed":1,"target_ci":0.05,"rel_ci95":0.01,"cycles_lo":1,"cycles_hi":2}}`...),
		"empty":           nil,
	} {
		if _, ok := decodeCell(b); ok {
			t.Errorf("%s: accepted %s", name, b)
		}
	}
}

// BenchmarkDecodeCell times one stored cell value's decode, the serve
// layer's share of a disk hit, against json.Unmarshal of the same bytes.
func BenchmarkDecodeCell(b *testing.B) {
	e, _, err := requestEffort(nil, true, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	p := exp.Point{Kind: core.NeuMMU, PageSize: vm.Page4K, Model: "CNN-1", Batch: 4}
	perf, res, err := NewHarnessCache(1).Get(e).NormPerf(p.Model, p.Batch, p.MMU())
	if err != nil {
		b.Fatal(err)
	}
	raw, _ := json.Marshal(CellValue{Cycles: int64(res.Cycles), Translations: res.Translations,
		Perf: perf, Counters: res.Counters})
	b.Run("decodeCell", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, ok := decodeCell(raw); !ok {
				b.Fatal("refused")
			}
		}
	})
	b.Run("json.Unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var v CellValue
			if err := json.Unmarshal(raw, &v); err != nil {
				b.Fatal(err)
			}
		}
	})
}
