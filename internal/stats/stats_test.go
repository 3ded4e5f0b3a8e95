package stats

import (
	"testing"
	"testing/quick"
)

func TestDistBasics(t *testing.T) {
	var d Dist
	for _, v := range []float64{3, 1, 4, 1, 5} {
		d.Add(v)
	}
	if d.N != 5 || d.Min != 1 || d.Max != 5 {
		t.Fatalf("dist = %+v", d)
	}
	if d.Mean() != 14.0/5 {
		t.Fatalf("mean = %v", d.Mean())
	}
}

func TestDistEmptyMean(t *testing.T) {
	var d Dist
	if d.Mean() != 0 {
		t.Fatal("empty dist mean must be 0")
	}
}

func TestDistMerge(t *testing.T) {
	var a, b Dist
	a.Add(1)
	a.Add(2)
	b.Add(10)
	a.Merge(b)
	if a.N != 3 || a.Max != 10 || a.Min != 1 {
		t.Fatalf("merged = %+v", a)
	}
	var empty Dist
	a.Merge(empty)
	if a.N != 3 {
		t.Fatal("merging empty changed the dist")
	}
	var c Dist
	c.Merge(a)
	if c.N != 3 {
		t.Fatal("merge into empty lost data")
	}
}

func TestTimeSeriesBuckets(t *testing.T) {
	ts := NewTimeSeries(1000)
	ts.Record(0, 1)
	ts.Record(999, 1)
	ts.Record(1000, 5)
	ts.Record(3500, 2)
	b := ts.Buckets()
	if len(b) != 4 {
		t.Fatalf("got %d buckets, want 4", len(b))
	}
	if b[0] != 2 || b[1] != 5 || b[2] != 0 || b[3] != 2 {
		t.Fatalf("buckets = %v", b)
	}
	if ts.Peak() != 5 {
		t.Fatalf("peak = %d", ts.Peak())
	}
}

func TestTimeSeriesBurstFraction(t *testing.T) {
	ts := NewTimeSeries(10)
	ts.Record(0, 10) // full window
	ts.Record(10, 1) // sparse window
	ts.Record(20, 9) // 90% window
	got := ts.BurstFraction(0.9)
	if got < 0.66 || got > 0.67 {
		t.Fatalf("burst fraction = %v, want 2/3", got)
	}
}

func TestTimeSeriesSparkline(t *testing.T) {
	ts := NewTimeSeries(10)
	for i := int64(0); i < 100; i++ {
		ts.Record(i*10, i)
	}
	s := ts.Sparkline(20)
	if len([]rune(s)) > 20 {
		t.Fatalf("sparkline too wide: %q", s)
	}
	if NewTimeSeries(5).Sparkline(10) != "" {
		t.Fatal("empty series should render empty")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Fatal("Ratio with zero denominator must be 0")
	}
	if Ratio(3, 4) != 0.75 {
		t.Fatal("Ratio wrong")
	}
}

// Property: a Dist's mean always lies within [min, max].
func TestDistMeanBounded(t *testing.T) {
	f := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		var d Dist
		for _, v := range vals {
			d.Add(float64(v))
		}
		m := d.Mean()
		return m >= d.Min-1e-9 && m <= d.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
