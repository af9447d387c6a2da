package main

import (
	"encoding/binary"
	"time"

	"github.com/bsc-repro/ompss/internal/hw"
	"github.com/bsc-repro/ompss/internal/memspace"
)

type kernelKind int

const (
	kInit     kernelKind = iota // out[i] = f(salt, i)
	kExchange                   // out[i] = 3*a[i] + b[i] + 1
	kHalo                       // out[i] = in[i-1] + 2*in[i] + in[i+1], zero outside the array
	kChain                      // out[i] = 5*out[i] + salt
)

var kernelNames = [...]string{"init", "exchange", "halo", "chain"}

// kernel is the body of every generated task. Its modeled cost is the
// same on either device class; its real body runs only in the validated
// twin run and in the serial reference, both on uint64 words so results
// are exact.
type kernel struct {
	kind kernelKind
	a, b memspace.Region // regions read (b unused by halo; both unused by init and chain)
	out  memspace.Region // region written
	cost time.Duration
	salt uint64
}

func (k kernel) Name() string                      { return kernelNames[k.kind] }
func (k kernel) GPUCost(hw.GPUSpec) time.Duration  { return k.cost }
func (k kernel) CPUCost(hw.NodeSpec) time.Duration { return k.cost }

func (k kernel) Run(store *memspace.Store) {
	if store == nil {
		return
	}
	le := binary.LittleEndian
	out := store.Bytes(k.out)
	n := len(out) / word
	switch k.kind {
	case kInit:
		for i := 0; i < n; i++ {
			x := (k.salt<<20 + uint64(i)) * 0x9e3779b97f4a7c15
			le.PutUint64(out[i*word:], x^x>>29)
		}
	case kExchange:
		a, b := store.Bytes(k.a), store.Bytes(k.b)
		for i := 0; i < n; i++ {
			le.PutUint64(out[i*word:], 3*le.Uint64(a[i*word:])+le.Uint64(b[i*word:])+1)
		}
	case kHalo:
		in := store.Bytes(k.a)
		lh := int(k.out.Addr-k.a.Addr) / word
		m := len(in) / word
		at := func(i int) uint64 {
			if i < 0 || i >= m {
				return 0
			}
			return le.Uint64(in[i*word:])
		}
		for i := 0; i < n; i++ {
			c := lh + i
			le.PutUint64(out[i*word:], at(c-1)+2*at(c)+at(c+1))
		}
	case kChain:
		for i := 0; i < n; i++ {
			le.PutUint64(out[i*word:], 5*le.Uint64(out[i*word:])+k.salt)
		}
	}
}
