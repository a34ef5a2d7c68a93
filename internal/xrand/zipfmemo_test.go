package xrand

import (
	"slices"
	"sync"
	"testing"
)

// TestNewZipfConcurrentSharesTable builds one key from 8 goroutines at
// once. Every Zipf must share the single memoized table, and each one's
// draws must equal those of a Zipf over a serially built table on the
// same seed. Run it under -race.
func TestNewZipfConcurrentSharesTable(t *testing.T) {
	const (
		workers = 8
		draws   = 2000
		theta   = 1.37 // a key no other test or package uses
		n       = 4099
	)
	prob, alias := buildAlias(theta, n)
	want := make([][]uint64, workers)
	for i := range want {
		z := &Zipf{r: New(int64(i)), n: n, prob: prob, alias: alias}
		for k := 0; k < draws; k++ {
			want[i] = append(want[i], z.Next())
		}
	}

	start := make(chan struct{})
	zs := make([]*Zipf, workers)
	got := make([][]uint64, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			zs[i] = NewZipf(New(int64(i)), theta, n)
			for k := 0; k < draws; k++ {
				got[i] = append(got[i], zs[i].Next())
			}
		}(i)
	}
	close(start)
	wg.Wait()

	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("worker %d: concurrent draws differ from the serial build", i)
		}
		if &zs[i].prob[0] != &zs[0].prob[0] || &zs[i].alias[0] != &zs[0].alias[0] {
			t.Fatalf("worker %d built its own table instead of sharing the memoized one", i)
		}
	}
	if !slices.Equal(zs[0].prob, prob) || !slices.Equal(zs[0].alias, alias) {
		t.Fatal("memoized table differs from a serial build")
	}
}
