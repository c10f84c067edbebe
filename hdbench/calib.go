package hdbench

import (
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"
)

// calibRefMs is what one calibration takes on the reference machine: the
// two-core box the benchmark was written on, in a quiet spell. A run's
// speed factor is its median calibration time over this.
const calibRefMs = 63.0

// calibrator is a fixed kernel of standard-library work only, so that no
// change to the repository can move it. The box this benchmark must
// repeat on changes speed by 15-40 % for minutes at a time (the processor
// itself: CPU time per operation rises with wall time), which no
// estimator inside a run can see through. The kernel runs between rounds
// and between set-ups, next to the work being timed, and every time the
// benchmark reports is divided by how much slower than the reference the
// kernel ran. That takes the spread between runs of one binary from
// 10-35 % to about 7 % (README.md has the measurements).
//
// It does the kinds of work the stacks under test do: small allocations,
// pointer chasing, hashing, buffer copies (the garbage collector's share
// included), then streaming reads and dependent loads over more memory
// than the caches hold.
type calibrator struct {
	stream []byte   // 4 MiB read front to back
	chase  []uint32 // 8 MiB random cycle followed one load at a time
	passes int      // allocation passes per run

	sink atomic.Uint64 // keeps the kernel's results observable
}

// newCalibrator builds the kernel; small shrinks it fifty-fold like the
// rest of a smoke run (its times then mean nothing).
func newCalibrator(small bool) *calibrator {
	stream, chase, passes := 4<<20, 2<<20, 24
	if small {
		stream, chase, passes = 1<<20, 1<<14, 1
	}
	c := &calibrator{stream: make([]byte, stream), chase: make([]uint32, chase), passes: passes}
	for i := range c.chase {
		c.chase[i] = uint32(i)
	}
	// Sattolo's shuffle: one cycle through every element.
	x := uint64(88172645463325252)
	for i := len(c.chase) - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		c.chase[i], c.chase[j] = c.chase[j], c.chase[i]
	}
	return c
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// calibNode is 48 bytes, like a small map element of the system's.
type calibNode struct {
	next *calibNode
	key  uint64
	pad  [4]uint64
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// allocPass builds and walks a linked list of 8192 nodes, fills and
// probes a map with them, and copies 1 MiB through fresh 4 KiB buffers.
func (c *calibrator) allocPass() uint64 {
	var sum uint64
	var head *calibNode
	x := uint64(88172645463325252)
	for i := 0; i < 8192; i++ {
		x = xorshift(x)
		head = &calibNode{next: head, key: x}
	}
	for n := head; n != nil; n = n.next {
		sum += n.key
	}
	m := make(map[uint64]uint64)
	for n, i := head, 0; i < 4096; n, i = n.next, i+1 {
		m[n.key] = uint64(i)
	}
	for n := head; n != nil; n = n.next {
		sum += m[n.key]
	}
	for i := 0; i < 256; i++ {
		b := make([]byte, 4096)
		copy(b, c.stream[i*4096:])
		sum += uint64(b[17])
	}
	return sum
}

// memoryPass checksums the stream buffer four times and follows
// dependent loads through half the chase table, a million of them.
func (c *calibrator) memoryPass(worker int) uint64 {
	var sum uint64
	for i := 0; i < 4; i++ {
		sum += uint64(crc32.Checksum(c.stream, castagnoli))
	}
	at := uint32(worker*7919) % uint32(len(c.chase))
	for i := 0; i < len(c.chase)/2; i++ {
		at = c.chase[at]
	}
	return sum + uint64(at)
}

// run times the kernel on `workers` goroutines at once — as many as the
// workload has vehicles — and returns the wall time in milliseconds.
func (c *calibrator) run(workers int) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sum uint64
			for i := 0; i < c.passes; i++ {
				sum += c.allocPass()
			}
			sum += c.memoryPass(w)
			c.sink.Add(sum)
		}(w)
	}
	wg.Wait()
	return float64(time.Since(start)) / 1e6
}
