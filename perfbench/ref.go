package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"
)

// Host-speed references.
//
// The benchmark runs on shared hosts. On the one its bounds were set on (two
// vCPUs beside other tenants' VMs), the whole machine ran at about half
// speed for minutes at a time: a fixed floating-point kernel slowed as much
// as the library did, and the wall-clock median latency of ten runs spread
// by up to 70%. Every measured phase therefore pauses its workload every
// refEvery for a burst of fixed reference work of the benchmark's own, and
// scales each op's time by the reference's speed around it: a time t
// measured while one unit of reference work took r ns is reported as
// t·nominal/r. The reference is not the library's code, so a change to the
// library moves the scaled numbers as it would move wall-clock time on a
// quiet host.
const (
	refEvery = 50 * time.Millisecond
	refBurst = 2 * time.Millisecond
)

// A hostRef is one kind of reference work.
type hostRef struct {
	// nominal is the time of one unit of the work, ns, on the calibration
	// host in its fast state; it only sets the scale of the metrics.
	nominal float64
	// burst does the work for about refBurst and returns the median time
	// of one unit, ns.
	burst func() float64
}

// cpuRef is throughput-bound floating-point work in L1 on every processor,
// as the library's codelets are: one unit is two rounds of radix-8
// butterflies over 1024 complex points. It also tracked the memory-bound
// large-p2 better than streaming or gathering over a 128 MiB buffer did:
// the slow phases throttle the processors more than the memory.
var cpuRef = hostRef{nominal: 4500, burst: cpuWork.burst}

// loopbackRef is a 16 KiB POST echoed by a trivial handler over a loopback
// keep-alive connection: the network stack, net/http and the scheduler,
// which dominate a serve-http request and which the slow phases slow less
// than they slow arithmetic. Under cpuRef, serve-http spread by 13%.
var loopbackRef = hostRef{nominal: 80000, burst: loopbackWork.burst}

var cpuWork parallelKernel

// A parallelKernel runs the cpuRef work on GOMAXPROCS goroutines that it
// starts on the first burst and that live as long as the process does; a
// benchmark run is one process.
type parallelKernel struct {
	once sync.Once
	run  []chan time.Time // per worker: the start of each burst
	done chan float64     // each worker's median unit time, once per burst
}

// burst returns the mean over the workers of each one's median unit time.
// It allocates nothing after the first call, so the allocation counts of the
// library workloads hold.
func (k *parallelKernel) burst() float64 {
	k.once.Do(k.start)
	now := time.Now()
	for _, c := range k.run {
		c <- now
	}
	var sum float64
	for range k.run {
		sum += <-k.done
	}
	return sum / float64(len(k.run))
}

func (k *parallelKernel) start() {
	p := runtime.GOMAXPROCS(0)
	k.done = make(chan float64, p)
	for w := 0; w < p; w++ {
		c := make(chan time.Time)
		k.run = append(k.run, c)
		go func() {
			var a, b [1024]complex128
			for i := range a {
				a[i] = complex(float64(i%7), float64(i%5))
			}
			times := make([]float64, 0, 1<<12)
			for start := range c {
				times = times[:0]
				for len(times) == 0 || time.Since(start) < refBurst {
					t0 := time.Now()
					butterflies8(b[:], a[:])
					butterflies8(a[:], b[:])
					for i := range a {
						a[i] *= 1.0 / 64 // keeps the values bounded unit after unit
					}
					times = append(times, float64(time.Since(t0)))
				}
				slices.Sort(times)
				k.done <- quantile(times, 0.5)
			}
		}()
	}
}

// butterflies8 applies a radix-8 DFT to each block of 8 points of src.
func butterflies8(dst, src []complex128) {
	const h = 0.7071067811865476
	for b := 0; b+8 <= len(src); b += 8 {
		x := src[b : b+8 : b+8]
		a0, a4 := x[0]+x[4], x[0]-x[4]
		a1, a5 := x[1]+x[5], x[1]-x[5]
		a2, a6 := x[2]+x[6], x[2]-x[6]
		a3, a7 := x[3]+x[7], x[3]-x[7]
		a6 = complex(imag(a6), -real(a6))
		a5 = complex(h*(real(a5)+imag(a5)), h*(imag(a5)-real(a5)))
		a7 = complex(-h*(real(a7)-imag(a7)), -h*(imag(a7)+real(a7)))
		b0, b2 := a0+a2, a0-a2
		b1, b3 := a1+a3, a1-a3
		b4, b6 := a4+a6, a4-a6
		b5, b7 := a5+a7, a5-a7
		b3 = complex(imag(b3), -real(b3))
		b7 = complex(imag(b7), -real(b7))
		y := dst[b : b+8 : b+8]
		y[0], y[4] = b0+b1, b0-b1
		y[2], y[6] = b2+b3, b2-b3
		y[1], y[5] = b4+b5, b4-b5
		y[3], y[7] = b6+b7, b6-b7
	}
}

var loopbackWork echoLoop

// An echoLoop is an HTTP server with an echo handler on a loopback port and
// one keep-alive client of it, both started on the first burst and kept for
// the life of the process.
type echoLoop struct {
	once        sync.Once
	err         error
	url         string
	client      *http.Client
	body, reply []byte
	times       []float64
}

const echoBytes = 16 << 10

func (e *echoLoop) start() {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.err = err
		return
	}
	srvBuf := make([]byte, echoBytes)
	srv := &http.Server{ReadHeaderTimeout: 10 * time.Second, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadFull(r.Body, srvBuf); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(echoBytes))
		w.Write(srvBuf)
	})}
	go srv.Serve(ln)
	e.url = "http://" + ln.Addr().String() + "/"
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	e.body, e.reply = make([]byte, echoBytes), make([]byte, echoBytes)
	e.times = make([]float64, 0, 1<<10)
}

// burst returns the median round trip of at least three echoes, ns. Its
// allocations add under 1% to serve-http's per request. The server is the
// benchmark's own on an open loopback connection, so an error is a bug and
// ends the run.
func (e *echoLoop) burst() float64 {
	e.once.Do(e.start)
	if e.err != nil {
		panic(fmt.Sprintf("perfbench: loopback reference: %v", e.err))
	}
	e.times = e.times[:0]
	start := time.Now()
	for len(e.times) < 3 || time.Since(start) < refBurst {
		t0 := time.Now()
		resp, err := e.client.Post(e.url, "application/octet-stream", bytes.NewReader(e.body))
		if err == nil {
			_, err = io.ReadFull(resp.Body, e.reply)
			resp.Body.Close()
		}
		if err != nil {
			panic(fmt.Sprintf("perfbench: loopback reference: %v", err))
		}
		e.times = append(e.times, float64(time.Since(t0)))
	}
	slices.Sort(e.times)
	return quantile(e.times, 0.5)
}
