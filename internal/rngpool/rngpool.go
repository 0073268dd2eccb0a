// Package rngpool recycles math/rand generators. A fresh
// rand.NewSource allocates ~5 KB of generator state; the study kernel
// seeds dozens per run, so it re-seeds pooled generators instead.
// Seeding still costs its fixed CPU: the study's output bytes pin the
// stream, and with it the source's seeding loop.
package rngpool

import (
	"math/rand"
	"sync"
)

var pool = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// Get returns a generator whose stream is identical to
// rand.New(rand.NewSource(seed)): Seed resets the source's whole state
// and the Rand's Read buffer. Release it with Put once done; it must
// not be retained.
func Get(seed int64) *rand.Rand {
	r := pool.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// Put returns a generator from Get to the pool. The caller must not use
// it afterwards.
func Put(r *rand.Rand) { pool.Put(r) }
