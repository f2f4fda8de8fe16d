package agent

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/itinerary"
	"repro/internal/resource"
	"repro/internal/txn"
)

// StepContext is the interface a step method programs against. It is
// implemented by the node runtime; everything a step does to resources or
// remote queues happens inside the surrounding step transaction (§2).
type StepContext interface {
	// NodeName returns the node executing the step.
	NodeName() string
	// AgentID returns the executing agent's ID.
	AgentID() string
	// StepSeq returns the sequence number of the current step.
	StepSeq() int
	// SRO returns the agent's strongly reversible data space.
	SRO() *Space
	// WRO returns the agent's weakly reversible data space.
	WRO() *Space
	// Tx returns the step transaction; resource operations take it.
	Tx() *txn.Tx
	// Resource looks up a local resource manager by name.
	Resource(name string) (resource.Resource, bool)

	// LogComp appends a compensating operation for an effect of this
	// step. kind determines where the compensation may run (§4.4.1) and
	// what it may access. Compensations are executed in reverse order.
	LogComp(kind core.OpKind, op string, params core.Params)

	// Savepoint requests an (application-defined) agent savepoint to be
	// constituted at the end of this step (§2: savepoints can only be
	// constituted at the end of a step).
	Savepoint(id string)

	// Rollback requests a partial rollback to the given savepoint. The
	// returned error must be returned from the step; the runtime aborts
	// the step transaction and starts the rollback (Figure 4a).
	Rollback(spID string) error
	// RollbackCurrentSub rolls back the innermost sub-itinerary.
	RollbackCurrentSub() error
	// RollbackEnclosing rolls back n>=1 sub-itinerary levels: 1 is the
	// current sub, 2 also the one containing it, and so on (§4.4.2).
	RollbackEnclosing(n int) error
}

// CompContext is the interface compensating operations program against.
// The runtime enforces the access rules of §4.3/§4.4.1: resource
// compensations get no agent access, agent compensations no resource
// access, and strongly reversible objects are frozen throughout.
type CompContext interface {
	// NodeName returns the node executing the compensating operation.
	NodeName() string
	// Kind returns the operation-entry kind being executed.
	Kind() core.OpKind
	// Params returns the parameters stored in the operation entry.
	Params() core.Params
	// Tx returns the compensation transaction.
	Tx() *txn.Tx
	// WRO returns the weakly reversible data space; it fails for
	// resource compensation entries, which must not access the agent.
	WRO() (*Space, error)
	// Resource looks up a local resource; it fails for agent
	// compensation entries, which must not access resources.
	Resource(name string) (resource.Resource, error)
}

// StepFunc implements one step of an agent (the method of a step entry).
type StepFunc func(ctx StepContext) error

// CompFunc implements one compensating operation.
type CompFunc func(ctx CompContext) error

// StepHint reports which node-local resources a step method will touch
// when executed for the given agent at the given itinerary step. The
// scheduler uses the returned names as conflict keys for dispatch
// ordering — purely advisory, never enforcement: a step may still touch
// resources the hint missed (2PL arbitrates the truth).
//
// A hint is read-only by contract: the agent it is shown is the one the
// claimed step attempt then executes on (the node decodes a container
// once per claim), so it must not modify the agent, its data spaces or
// its itinerary.
type StepHint func(a *Agent, step itinerary.Step) []string

// StaticHint is a StepHint for methods with a fixed resource set.
func StaticHint(resources ...string) StepHint {
	return func(*Agent, itinerary.Step) []string { return resources }
}

// Registry maps method names to step and compensation functions. One
// registry is shared by all nodes of a cluster — the stand-in for code
// being available everywhere (see the code-mobility substitution note in
// DESIGN.md).
type Registry struct {
	mu    sync.RWMutex
	steps map[string]StepFunc
	comps map[string]CompFunc
	hints map[string]StepHint

	hintCount atomic.Int32
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		steps: make(map[string]StepFunc),
		comps: make(map[string]CompFunc),
		hints: make(map[string]StepHint),
	}
}

// RegisterStep registers a step method under name.
func (r *Registry) RegisterStep(name string, fn StepFunc) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.steps[name]; ok {
		return fmt.Errorf("agent: step %q already registered", name)
	}
	r.steps[name] = fn
	return nil
}

// RegisterComp registers a compensating operation under name.
func (r *Registry) RegisterComp(name string, fn CompFunc) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.comps[name]; ok {
		return fmt.Errorf("agent: compensation %q already registered", name)
	}
	r.comps[name] = fn
	return nil
}

// RegisterStepHints attaches a resource-conflict hint to a registered step
// method (see StepHint). Registering a hint for an unknown method or
// re-registering one is an error.
func (r *Registry) RegisterStepHints(name string, hint StepHint) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.steps[name]; !ok {
		return fmt.Errorf("agent: hints for unregistered step %q", name)
	}
	if _, ok := r.hints[name]; ok {
		return fmt.Errorf("agent: hints for step %q already registered", name)
	}
	r.hints[name] = hint
	r.hintCount.Add(1)
	return nil
}

// StepHintFor resolves the conflict hint of a step method, if any.
func (r *Registry) StepHintFor(name string) (StepHint, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.hints[name]
	return h, ok
}

// HasHints reports whether any step hint is registered — a cheap gate so
// hint-less deployments skip container decoding in the dispatch path.
func (r *Registry) HasHints() bool { return r.hintCount.Load() > 0 }

// Step resolves a step method.
func (r *Registry) Step(name string) (StepFunc, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.steps[name]
	return fn, ok
}

// Comp resolves a compensating operation.
func (r *Registry) Comp(name string) (CompFunc, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.comps[name]
	return fn, ok
}

// RollbackRequest is the sentinel error a step returns (via
// StepContext.Rollback) to trigger a partial rollback to SpID.
type RollbackRequest struct {
	SpID string
}

// Error implements error.
func (r *RollbackRequest) Error() string {
	return "agent: rollback requested to savepoint " + r.SpID
}
