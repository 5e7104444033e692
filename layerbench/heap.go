package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
)

// peakLive is the largest live heap any garbage collection has measured
// since the last resetHeapPeak. Unlike the heap's mapped size, the live heap
// after marking neither moves in multi-megabyte steps nor depends on the
// moment a collection happens to start.
var peakLive atomic.Uint64

var watchOnce sync.Once

// watchHeap starts sampling /gc/heap/live:bytes after every collection: a
// finalizer on an unreachable sentinel runs once per cycle and arms the
// next sentinel.
func watchHeap() { watchOnce.Do(arm) }

func arm() {
	sentinel := new([16]byte)
	runtime.SetFinalizer(sentinel, func(*[16]byte) {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		// Finalizers run one at a time, so this is the only writer.
		if v := s[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > peakLive.Load() {
			peakLive.Store(v.Uint64())
		}
		arm()
	})
}

// resetHeapPeak starts a new peak window. A sample of a collection that
// ended just before the reset may still land in the new window.
func resetHeapPeak() { peakLive.Store(0) }

// heapPeakMB is the window's peak live heap in MiB.
func heapPeakMB() float64 { return float64(peakLive.Load()) / (1 << 20) }
