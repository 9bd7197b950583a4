package main

import (
	"bytes"
	"compress/flate"
	"fmt"
	"sync"
)

// The gated CPU times are scaled to a reference host speed. On a shared
// virtual machine the CPU time of identical work drifts by 20% or more
// within a minute, as neighbours contend for the physical cores and
// memory. The benchmark therefore runs calibrate, a fixed piece of work
// that does not call the program, right before and right after every
// child process, and scales the child's CPU time by
// refCalibrationS / (mean of the two calibrations). A slower moment
// slows both and cancels; a slower program slows only the child. The
// raw CPU times are printed beside the scaled ones.
const (
	// refCalibrationS is calibrate's CPU time on the reference host, a
	// quiet 2-vCPU virtual machine (Go 1.24, linux/amd64). It only sets
	// the scale, so that a scaled time reads as CPU seconds there.
	refCalibrationS = 1.0
	// calibrationRounds is the kernel rounds each of the two
	// calibration goroutines runs: about 1 s of CPU in all.
	calibrationRounds = 30
	// calibrationSum is the checksum of one kernel round; a different
	// value means the calibration work changed and the scale with it.
	calibrationSum = 201488
)

// calibrationKernel is one round of calibration work, shaped like the
// study's own: a byte-wise generator loop, a DEFLATE compression (the
// PNG encoder's inner loop) and a map built from many small appends
// (allocation and GC). It returns a checksum of what it computed.
func calibrationKernel() int {
	x := uint64(12345)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	buf := make([]byte, 1<<18)
	for i := range buf {
		buf[i] = byte(next() % 23)
	}
	var out bytes.Buffer
	w, _ := flate.NewWriter(&out, flate.DefaultCompression) // a valid level cannot fail
	w.Write(buf)
	w.Close()
	m := map[uint64][]byte{}
	for i := 0; i < 200_000; i++ {
		k := next() % 50_000
		m[k] = append(m[k], byte(i))
	}
	return out.Len() + len(m)
}

// calibrate runs the calibration work on two goroutines, as a study
// keeps both cores busy, and returns the CPU seconds it took.
func calibrate() (float64, error) {
	c := cpuTime()
	sums := make([]int, 2)
	var wg sync.WaitGroup
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < calibrationRounds; r++ {
				if s := calibrationKernel(); s != calibrationSum {
					sums[g] = s
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, s := range sums {
		if s != 0 {
			return 0, fmt.Errorf("calibration checksum %d, want %d", s, calibrationSum)
		}
	}
	return cpuSince(c).Seconds(), nil
}

// speedScale is the factor that scales a CPU time measured between two
// calibrations to the reference host speed.
func speedScale(before, after float64) float64 {
	return refCalibrationS / ((before + after) / 2)
}
