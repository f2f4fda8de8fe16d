package main

import (
	"fmt"
	"net"
	"time"

	"repro/internal/network"
	"repro/internal/node"
	"repro/internal/wire"
)

// probeCalls is how many timed calls back each probe's median.
const probeCalls = 2000

// timeCalls runs fn n times and returns the per-call durations in µs.
func timeCalls(n int, fn func(i int) error) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out[i] = float64(time.Since(t0)) / float64(time.Microsecond)
	}
	return out, nil
}

// containersFrom keeps the values node.DecodeContainer accepts. Values
// captured at the store seam are queue records wrapping the container
// (a gob struct with ID and Data fields); values captured by an owner are
// bare containers.
func containersFrom(values [][]byte) [][]byte {
	var out [][]byte
	for _, v := range values {
		if c, err := node.DecodeContainer(v); err == nil && c.Agent != nil {
			out = append(out, v)
			continue
		}
		var rec struct {
			ID   string
			Data []byte
		}
		if wire.Decode(v, &rec) != nil {
			continue
		}
		if c, err := node.DecodeContainer(rec.Data); err == nil && c.Agent != nil {
			out = append(out, rec.Data)
		}
	}
	return out
}

// probeCodec times node.DecodeContainer and node.EncodeContainer over
// containers captured from the workload, and reports their mean size.
func probeCodec(containers [][]byte) (encUS, decUS, meanBytes float64, err error) {
	if len(containers) == 0 {
		return 0, 0, 0, fmt.Errorf("codec probe: no containers captured")
	}
	decoded := make([]*node.Container, len(containers))
	var total int
	for i, raw := range containers {
		total += len(raw)
		if decoded[i], err = node.DecodeContainer(raw); err != nil {
			return 0, 0, 0, err
		}
	}
	dec, err := timeCalls(probeCalls, func(i int) error {
		_, err := node.DecodeContainer(containers[i%len(containers)])
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	enc, err := timeCalls(probeCalls, func(i int) error {
		_, err := node.EncodeContainer(decoded[i%len(decoded)])
		return err
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return median(enc), median(dec), float64(total) / float64(len(containers)), nil
}

// hop times one message from a to b, send to receive.
func hop(a, b network.Endpoint) ([]float64, error) {
	payload := make([]byte, 64)
	return timeCalls(probeCalls, func(int) error {
		if err := a.Send(b.Name(), "probe", payload); err != nil {
			return err
		}
		select {
		case _, ok := <-b.Recv():
			if !ok {
				return fmt.Errorf("hop probe: endpoint closed")
			}
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("hop probe: message lost")
		}
	})
}

// probeSimHop times a zero-latency network.Sim delivery.
func probeSimHop() (float64, error) {
	sim := network.NewSim(network.SimConfig{})
	defer sim.Close()
	a, err := sim.Endpoint("pa")
	if err != nil {
		return 0, err
	}
	b, err := sim.Endpoint("pb")
	if err != nil {
		return 0, err
	}
	us, err := hop(a, b)
	return median(us), err
}

// probeTCPHop times a loopback delivery between two network.NewTCP
// endpoints with the default flush linger.
func probeTCPHop() (float64, error) {
	addr, err := freeAddr()
	if err != nil {
		return 0, err
	}
	b, err := network.NewTCP(network.TCPConfig{Name: "pb", Listen: addr})
	if err != nil {
		return 0, err
	}
	defer b.Close()
	a, err := network.NewTCP(network.TCPConfig{Name: "pa", Peers: map[string]string{"pb": addr}})
	if err != nil {
		return 0, err
	}
	defer a.Close()
	us, err := hop(a, b)
	return median(us), err
}

// freeAddr asks the kernel for a loopback port nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}
