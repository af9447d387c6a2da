package coherence

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/bsc-repro/ompss/internal/memspace"
)

func reg(addr, size uint64) memspace.Region { return memspace.Region{Addr: addr, Size: size} }

var (
	host = memspace.Host(0)
	gpu0 = memspace.GPU(0, 0)
	gpu1 = memspace.GPU(0, 1)
)

func TestDirectoryInitAndHolders(t *testing.T) {
	d := NewDirectory()
	r := reg(0x1000, 64)
	if d.Known(r) {
		t.Fatal("unknown region should not be Known")
	}
	d.Init(r, host)
	if !d.IsHolder(r, host) || d.IsHolder(r, gpu0) {
		t.Fatal("holder bookkeeping wrong after Init")
	}
	d.AddHolder(r, gpu0)
	hs := d.Holders(r)
	if len(hs) != 2 || hs[0] != host || hs[1] != gpu0 {
		t.Fatalf("holders = %v", hs)
	}
}

func TestDirectoryProducedInvalidatesOthers(t *testing.T) {
	d := NewDirectory()
	r := reg(0x1000, 64)
	d.Init(r, host)
	d.AddHolder(r, gpu0)
	d.AddHolder(r, gpu1)
	d.Produced(r, gpu1)
	if d.IsHolder(r, host) || d.IsHolder(r, gpu0) {
		t.Fatal("stale holders survived Produced")
	}
	if !d.IsHolder(r, gpu1) {
		t.Fatal("producer must hold the new version")
	}
	if d.Version(r) != 1 {
		t.Fatalf("version = %d", d.Version(r))
	}
}

func TestDirectoryDropHolder(t *testing.T) {
	d := NewDirectory()
	r := reg(0x1000, 64)
	d.Init(r, host)
	d.AddHolder(r, gpu0)
	d.DropHolder(r, gpu0)
	if d.IsHolder(r, gpu0) {
		t.Fatal("dropped holder still present")
	}
	// Dropping an absent holder is a no-op.
	d.DropHolder(r, gpu1)
	// Dropping the last holder panics: the version must live somewhere.
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic dropping last holder")
		}
	}()
	d.DropHolder(r, host)
}

func TestDirectoryAddHolderUnknownPanics(t *testing.T) {
	d := NewDirectory()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.AddHolder(reg(1, 1), host)
}

func TestDirectoryFragmentGrowth(t *testing.T) {
	// Overlapping regions used to panic ("region mismatch"); now the
	// directory fragments. Init a 64-byte region, then a 128-byte region
	// at the same address: both fragments end up held.
	d := NewDirectory()
	d.Init(reg(0x1000, 64), host)
	d.Init(reg(0x1000, 128), host)
	if !d.IsHolder(reg(0x1000, 128), host) || !d.IsHolder(reg(0x1000, 64), host) {
		t.Fatal("host must hold both the original and the grown region")
	}
	if !d.IsHolder(reg(0x1040, 64), host) {
		t.Fatal("host must hold the extension fragment")
	}
}

func TestDirectoryFragmentAssembly(t *testing.T) {
	// Two adjacent producers on different devices; a consumer region
	// straddling them is missing exactly the two halves it doesn't hold.
	d := NewDirectory()
	left, right := reg(0x1000, 64), reg(0x1040, 64)
	d.Init(left, host)
	d.Init(right, host)
	d.Produced(left, gpu0)
	d.Produced(right, gpu1)
	mid := reg(0x1020, 64)
	if d.IsHolder(mid, gpu0) || d.IsHolder(mid, gpu1) || d.IsHolder(mid, host) {
		t.Fatal("nobody holds the straddling region in full")
	}
	if !d.Known(mid) {
		t.Fatal("straddling region must be Known")
	}
	miss := d.Missing(mid, host)
	if len(miss) != 2 || miss[0] != reg(0x1020, 32) || miss[1] != reg(0x1040, 32) {
		t.Fatalf("Missing = %v", miss)
	}
	if hs := d.Holders(reg(0x1020, 32)); len(hs) != 1 || hs[0] != gpu0 {
		t.Fatalf("holders of left half = %v", hs)
	}
	// After both fragments come home, nothing is missing and host holds all.
	d.AddHolder(reg(0x1020, 32), host)
	d.AddHolder(reg(0x1040, 32), host)
	if got := d.Missing(mid, host); got != nil {
		t.Fatalf("Missing after assembly = %v", got)
	}
	if !d.IsHolder(mid, host) {
		t.Fatal("host must hold the assembled region")
	}
	if hb := d.HeldBytes(mid, gpu0); hb != 32 {
		t.Fatalf("gpu0 HeldBytes = %d", hb)
	}
}

func TestDirectoryProducedInvalidatesByOverlap(t *testing.T) {
	d := NewDirectory()
	whole := reg(0x2000, 128)
	d.Init(whole, host)
	// Producing a middle slice elsewhere leaves host holding the edges only.
	mid := reg(0x2020, 64)
	d.Produced(mid, gpu0)
	if d.IsHolder(whole, host) {
		t.Fatal("host must lose the overwritten middle")
	}
	if !d.IsHolder(reg(0x2000, 32), host) || !d.IsHolder(reg(0x2060, 32), host) {
		t.Fatal("host must keep the untouched edges")
	}
	if !d.IsHolder(mid, gpu0) {
		t.Fatal("producer must hold the middle")
	}
	if d.Version(mid) != 1 || d.Version(reg(0x2000, 32)) != 0 {
		t.Fatalf("versions = %d / %d", d.Version(mid), d.Version(reg(0x2000, 32)))
	}
}

func TestCacheHitMissLRU(t *testing.T) {
	c := NewCache(gpu0, WriteBack, 300)
	a, b, x := reg(0xa, 100), reg(0xb, 100), reg(0xc, 100)
	c.Insert(a, false)
	c.Insert(b, false)
	c.Insert(x, false)
	if c.Lookup(a) == nil {
		t.Fatal("a should hit")
	}
	if c.Lookup(reg(0xd, 1)) != nil {
		t.Fatal("d should miss")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d", c.Hits, c.Misses)
	}
	// b is now LRU (a was touched, x inserted after b).
	victims, ok := c.MakeSpace(100)
	if !ok || len(victims) != 1 || victims[0].Region != b {
		t.Fatalf("victims = %v ok=%v, want [b]", victims, ok)
	}
}

func TestCacheMakeSpaceCases(t *testing.T) {
	c := NewCache(gpu0, WriteBack, 100)
	// Fits without eviction.
	if v, ok := c.MakeSpace(100); !ok || v != nil {
		t.Fatalf("empty cache MakeSpace = %v %v", v, ok)
	}
	// Bigger than capacity can never fit.
	if _, ok := c.MakeSpace(101); ok {
		t.Fatal("oversized request should fail")
	}
	c.Insert(reg(0xa, 60), false)
	v, ok := c.MakeSpace(50)
	if !ok || len(v) != 1 {
		t.Fatalf("MakeSpace(50) = %v %v", v, ok)
	}
}

func TestCachePinnedLinesNotEvicted(t *testing.T) {
	c := NewCache(gpu0, WriteBack, 200)
	a, b := reg(0xa, 100), reg(0xb, 100)
	c.Insert(a, false)
	c.Insert(b, false)
	c.Pin(a)
	v, ok := c.MakeSpace(100)
	if !ok || len(v) != 1 || v[0].Region != b {
		t.Fatalf("victims = %v ok=%v, want only b", v, ok)
	}
	c.Pin(b)
	if _, ok := c.MakeSpace(100); ok {
		t.Fatal("all-pinned cache should fail MakeSpace")
	}
	c.Unpin(a)
	v, ok = c.MakeSpace(100)
	if !ok || len(v) != 1 || v[0].Region != a {
		t.Fatalf("after unpin: victims = %v", v)
	}
}

func TestCacheRemoveAccounting(t *testing.T) {
	c := NewCache(gpu0, WriteBack, 200)
	a := reg(0xa, 150)
	c.Insert(a, true)
	if c.Used() != 150 {
		t.Fatalf("used = %d", c.Used())
	}
	c.Remove(a)
	if c.Used() != 0 || c.Len() != 0 || c.Evictions != 1 {
		t.Fatalf("after remove: used=%d len=%d evictions=%d", c.Used(), c.Len(), c.Evictions)
	}
}

func TestCacheRemovePinnedPanics(t *testing.T) {
	c := NewCache(gpu0, WriteBack, 200)
	a := reg(0xa, 10)
	c.Insert(a, false)
	c.Pin(a)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Remove(a)
}

func TestCacheInsertOverflowPanics(t *testing.T) {
	c := NewCache(gpu0, WriteBack, 100)
	c.Insert(reg(0xa, 90), false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Insert(reg(0xb, 20), false)
}

func TestCacheDirtyTracking(t *testing.T) {
	c := NewCache(gpu0, WriteBack, 300)
	a, b, x := reg(0xa, 10), reg(0xb, 10), reg(0xc, 10)
	c.Insert(a, false)
	c.Insert(b, true)
	c.Insert(x, false)
	c.MarkDirty(x)
	dirty := c.DirtyLines()
	if len(dirty) != 2 || dirty[0].Region != b || dirty[1].Region != x {
		t.Fatalf("dirty = %v", dirty)
	}
	c.Clean(b)
	if got := c.DirtyLines(); len(got) != 1 || got[0].Region != x {
		t.Fatalf("after clean: %v", got)
	}
	c.Clean(reg(0xff, 1)) // cleaning absent line is a no-op
}

func TestCacheLinesSorted(t *testing.T) {
	c := NewCache(gpu0, WriteBack, 300)
	c.Insert(reg(0x30, 10), false)
	c.Insert(reg(0x10, 10), false)
	c.Insert(reg(0x20, 10), false)
	ls := c.Lines()
	if ls[0].Region.Addr != 0x10 || ls[1].Region.Addr != 0x20 || ls[2].Region.Addr != 0x30 {
		t.Fatalf("lines = %v", ls)
	}
}

// refLines is the brute-force reference for the cache's line index: every
// resident line, scanned from the model and sorted by region.
func refLines(model map[memspace.Region]*Line) []*Line {
	var out []*Line
	for _, l := range model {
		out = append(out, l)
	}
	slices.SortFunc(out, func(a, b *Line) int { return regionCmp(a.Region, b.Region) })
	return out
}

// refMakeSpace is MakeSpace by full scan: unpinned lines oldest first
// until size more bytes fit.
func refMakeSpace(model map[memspace.Region]*Line, used, capacity, size uint64) ([]*Line, bool) {
	if size > capacity {
		return nil, false
	}
	if used+size <= capacity {
		return nil, true
	}
	var cand []*Line
	for _, l := range refLines(model) {
		if l.pins == 0 {
			cand = append(cand, l)
		}
	}
	slices.SortFunc(cand, func(a, b *Line) int { return cmp.Compare(a.lru, b.lru) })
	var victims []*Line
	need, freed := used+size-capacity, uint64(0)
	for _, l := range cand {
		if freed >= need {
			break
		}
		victims = append(victims, l)
		freed += l.Region.Size
	}
	if freed < need {
		return nil, false
	}
	return victims, true
}

// Property: under any sequence of inserts, lookups, removes (the largest
// line among them), pins and dirty flips over overlapping lines of mixed
// sizes, the line index answers OverlappingLines, DirtyLines, Lines and
// MakeSpace exactly as a full scan of the resident lines does, used bytes
// equal the sum of resident sizes, and the tracked largest size is exact.
func TestQuickCacheInvariant(t *testing.T) {
	f := func(seed int64, ops []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCache(gpu0, WriteBack, 1500)
		model := make(map[memspace.Region]*Line)
		remove := func(r memspace.Region) {
			c.Remove(r)
			delete(model, r)
		}
		for step, op := range ops {
			// Addresses and sizes vary independently: lines overlap, share
			// start addresses and differ in size.
			r := reg(0x1000+uint64(op%32)*0x20, 0x10<<((op>>5)%6))
			l, resident := model[r]
			switch (op >> 8) % 8 {
			case 0, 1, 2, 3:
				switch {
				case resident && op>>11&1 == 0 && l.pins == 0:
					remove(r)
				case resident:
					c.Lookup(r)
				default:
					victims, ok := c.MakeSpace(r.Size)
					if !ok {
						break
					}
					for _, v := range victims {
						remove(v.Region)
					}
					model[r] = c.Insert(r, op>>12&1 == 1)
				}
			case 4: // remove a largest unpinned line
				var big *Line
				for _, x := range refLines(model) {
					if x.pins == 0 && (big == nil || x.Region.Size > big.Region.Size) {
						big = x
					}
				}
				if big != nil {
					remove(big.Region)
				}
			case 5:
				switch {
				case resident && l.pins > 0:
					c.Unpin(r)
				case resident:
					c.Pin(r)
				}
			case 6:
				switch {
				case resident && l.Dirty:
					c.Clean(r)
				case resident:
					c.MarkDirty(r)
				}
			case 7:
				c.Lookup(r)
			}

			want := refLines(model)
			if !slices.Equal(c.Lines(), want) {
				t.Logf("step %d: Lines = %v, want %v", step, c.Lines(), want)
				return false
			}
			var sum, maxSize uint64
			var dirty []*Line
			for _, x := range want {
				sum += x.Region.Size
				maxSize = max(maxSize, x.Region.Size)
				if x.Dirty {
					dirty = append(dirty, x)
				}
			}
			if sum != c.Used() || c.Used() > c.Capacity() || c.Len() != len(want) || c.maxSize != maxSize {
				t.Logf("step %d: used %d (sum %d), len %d (want %d), maxSize %d (want %d)",
					step, c.Used(), sum, c.Len(), len(want), c.maxSize, maxSize)
				return false
			}
			if !slices.Equal(c.DirtyLines(), dirty) {
				t.Logf("step %d: DirtyLines = %v, want %v", step, c.DirtyLines(), dirty)
				return false
			}
			for range 4 {
				q := reg(0xf00+uint64(rng.Intn(0x700)), uint64(rng.Intn(0x300)))
				var over []*Line
				for _, x := range want {
					if x.Region.Overlaps(q) {
						over = append(over, x)
					}
				}
				if got := c.OverlappingLines(q); !slices.Equal(got, over) {
					t.Logf("step %d: OverlappingLines(%v) = %v, want %v", step, q, got, over)
					return false
				}
			}
			size := uint64(rng.Intn(1600))
			got, gotOK := c.MakeSpace(size)
			ref, refOK := refMakeSpace(model, c.Used(), c.Capacity(), size)
			if gotOK != refOK || !slices.Equal(got, ref) {
				t.Logf("step %d: MakeSpace(%d) = %v %v, want %v %v", step, size, got, gotOK, ref, refOK)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The directory's read queries walk fragments through one buffer the
// directory owns, so on a warmed directory they allocate nothing.
func TestDirectoryReadsDoNotAllocate(t *testing.T) {
	d := NewDirectory()
	for i := uint64(0); i < 64; i++ {
		d.Init(reg(0x1000+i*0x100, 0x100), host)
	}
	d.Produced(reg(0x1080, 0x200), gpu0) // splits two fragments
	d.AddHolder(reg(0x1100, 0x100), gpu1)
	q := reg(0x1040, 0x300) // spans five fragments
	reads := func() {
		d.IsHolder(q, host)
		d.Known(q)
		d.HeldBytes(q, gpu0)
		d.Version(q)
	}
	reads() // grows the buffer
	if n := testing.AllocsPerRun(100, reads); n != 0 {
		t.Fatalf("IsHolder+Known+HeldBytes+Version allocate %v times per run, want 0", n)
	}
}

// BenchmarkCacheOverlappingLines times one overlap sweep query touching one
// line of a cache with n resident lines (the per-version sweep of
// nodeRT.produced). The cost should barely grow with n.
func BenchmarkCacheOverlappingLines(b *testing.B) {
	for _, n := range []int{256, 4096} {
		b.Run(fmt.Sprintf("lines=%d", n), func(b *testing.B) {
			c := NewCache(gpu0, WriteBack, 1<<40)
			for i := 0; i < n; i++ {
				c.Insert(reg(uint64(i)*4096, 4096), false)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.OverlappingLines(reg(uint64(i%n)*4096+64, 64))
			}
		})
	}
}
