package main

// Recording the timed window without disturbing it. Client and server
// share one process, and the server's garbage collector is paced by the
// live heap: a sample list that grew on the Go heap through the window
// would make collections rarer as it grew, so tail latency would drift
// down during every run. Samples therefore go to an anonymous memory
// mapping the collector neither scans nor counts.

import (
	"encoding/binary"
	"hash/fnv"
	"syscall"
	"time"

	"repro/internal/server"
)

// Sample classes. A query is cached when it made no source calls and
// was not shed, live when it made calls, incomplete when it was shed or
// not complete.
const (
	classCached = iota
	classLive
	classIncomplete
	classInval
)

const classShift = 61

// sampleLog is one client's latencies, one 8-byte word per operation:
// the class in the top bits, the latency in nanoseconds below.
type sampleLog struct {
	mem []byte
	n   int
}

const sampleBytes = 8

func newSampleLog(capacity int) (*sampleLog, error) {
	l := &sampleLog{}
	if err := l.grow(capacity); err != nil {
		return nil, err
	}
	return l, nil
}

// grow moves the log to a fresh mapping of the given capacity, touching
// every page now so the window takes no page faults.
func (l *sampleLog) grow(capacity int) error {
	mem, err := syscall.Mmap(-1, 0, capacity*sampleBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return err
	}
	for i := 0; i < len(mem); i += 4096 {
		mem[i] = 0
	}
	if l.mem != nil {
		copy(mem, l.mem[:l.n*sampleBytes])
		_ = syscall.Munmap(l.mem)
	}
	l.mem = mem
	return nil
}

func (l *sampleLog) add(class int, lat time.Duration) error {
	if (l.n+1)*sampleBytes > len(l.mem) {
		if err := l.grow(2 * len(l.mem) / sampleBytes); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint64(l.mem[l.n*sampleBytes:], uint64(class)<<classShift|uint64(lat))
	l.n++
	return nil
}

func (l *sampleLog) at(i int) (class int, lat time.Duration) {
	v := binary.LittleEndian.Uint64(l.mem[i*sampleBytes:])
	return int(v >> classShift), time.Duration(v & (1<<classShift - 1))
}

func (l *sampleLog) free() {
	if l.mem != nil {
		_ = syscall.Munmap(l.mem)
		l.mem = nil
	}
}

// answerDigest is what the window keeps of a generated query's response
// for the oracle that runs after it: the operation's place in its
// client's stream, the row count and a hash of the rows — or, for a
// shed or incomplete response, the response itself (the subset check
// needs the rows).
type answerDigest struct {
	seq  int
	rows int
	hash uint64
	resp *server.Response
}

// rowsHash hashes wire rows in order, length-prefixing every value.
func rowsHash(rows [][]string) uint64 {
	h := fnv.New64a()
	var n [8]byte
	for _, r := range rows {
		binary.LittleEndian.PutUint64(n[:], uint64(len(r)))
		h.Write(n[:])
		for _, v := range r {
			binary.LittleEndian.PutUint64(n[:], uint64(len(v)))
			h.Write(n[:])
			h.Write([]byte(v))
		}
	}
	return h.Sum64()
}
