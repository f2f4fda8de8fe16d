// Command agentctl launches demo agents into a TCP cluster of agentnode
// processes and waits for their completion notification (it acts as the
// agent's owner).
//
//	agentctl -name ctl -listen :7000 \
//	  -peers 'A=localhost:7001,B=localhost:7002,C=localhost:7003' \
//	  -bank A -shop B -dir C -acct alice -id trip1
//
// It also doubles as the operator client for a node's admin plane
// (agentnode -obs-addr):
//
//	agentctl metrics -obs http://localhost:7901 [-filter sched] [-all]
//	agentctl trace   -obs http://localhost:7901 [-txn A#12 | -agent trip1] [-last 50]
//	agentctl ring    -obs http://localhost:7901
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/demo"
	"repro/internal/network"
	"repro/internal/node"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "agentctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "metrics":
			return runMetrics(args[1:], os.Stdout)
		case "trace":
			return runTrace(args[1:], os.Stdout)
		case "ring":
			return runRing(args[1:], os.Stdout)
		}
	}
	return runLaunch(args)
}

// httpGet fetches one admin-plane URL with a hard deadline.
func httpGet(url string, timeout time.Duration) ([]byte, error) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

func runLaunch(args []string) error {
	fs := flag.NewFlagSet("agentctl", flag.ContinueOnError)
	var (
		name      = fs.String("name", "ctl", "this client's protocol name (must be in the nodes' peer lists)")
		listen    = fs.String("listen", ":7000", "listen address for completion notifications")
		peersFlag = fs.String("peers", "", "comma-separated name=host:port peer list")
		bankNode  = fs.String("bank", "A", "node hosting the bank")
		shopNode  = fs.String("shop", "B", "node hosting the shop")
		dirNode   = fs.String("dir", "C", "node hosting the directory")
		acct      = fs.String("acct", "alice", "bank account the agent draws from")
		id        = fs.String("id", "demo-agent", "agent ID")
		timeout   = fs.Duration("timeout", 60*time.Second, "wait timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	peers := make(map[string]string)
	for _, part := range strings.Split(*peersFlag, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) == 2 {
			peers[kv[0]] = kv[1]
		}
	}
	ep, err := network.NewTCP(network.TCPConfig{Name: *name, Listen: *listen, Peers: peers})
	if err != nil {
		return err
	}
	defer ep.Close()

	a, entered, err := demo.NewAgent(*id, *acct, *bankNode, *shopNode, *dirNode)
	if err != nil {
		return err
	}
	a.Owner = *name
	if err := node.AppendInitialSavepoints(a, entered, core.StateLogging); err != nil {
		return err
	}
	data, err := node.EncodeContainer(&node.Container{Mode: node.ModeStep, Agent: a})
	if err != nil {
		return err
	}
	launch, err := node.EncodeLaunch(*id, data)
	if err != nil {
		return err
	}
	// An unreachable node is no error yet: the launch is lost like any
	// message, and the wait below times out.
	if err := ep.Send(*bankNode, node.KindAgentLaunch, launch); err != nil && !errors.Is(err, network.ErrUnreachable) {
		return err
	}
	fmt.Printf("launched agent %q at node %s, waiting for completion...\n", *id, *bankNode)

	deadline := time.NewTimer(*timeout)
	defer deadline.Stop()
	for {
		select {
		case msg, ok := <-ep.Recv():
			if !ok {
				return fmt.Errorf("endpoint closed")
			}
			switch msg.Kind {
			case "agent.launch.ack":
				fmt.Println("node accepted the agent into its input queue")
			case node.KindAgentDone:
				done, err := node.DecodeDone(msg.Payload)
				if err != nil {
					return err
				}
				if done.AgentID != *id {
					continue
				}
				if ack, err := node.EncodeDoneAck(done.AgentID); err == nil {
					_ = ep.Send(msg.From, node.KindAgentDoneAck, ack)
				}
				return report(done)
			}
		case <-deadline.C:
			return fmt.Errorf("timed out waiting for agent %q", *id)
		}
	}
}

func report(done node.Done) error {
	if done.Failed {
		return fmt.Errorf("agent failed: %s", done.Reason)
	}
	var decision, review string
	if err := done.Agent.SRO.MustGet("decision", &decision); err != nil {
		return err
	}
	if err := done.Agent.SRO.MustGet("review", &review); err != nil {
		return err
	}
	w, err := demo.Wallet(done.Agent.WRO)
	if err != nil {
		return err
	}
	noted, err := done.Agent.WRO.Has("note")
	if err != nil {
		return err
	}
	fmt.Printf("agent completed: decision=%s review=%s wallet=%d USD rolled-back=%v\n",
		decision, review, w.Total("USD"), noted)
	return nil
}
