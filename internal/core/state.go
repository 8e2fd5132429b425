package core

import (
	"fmt"

	"edgetta/internal/opt"
)

// AdapterState is an opaque, self-contained deep copy of an adapter's
// mutable per-stream adaptation state. The adaptation algorithms only ever
// mutate BatchNorm state (statistics, affine parameters) and — for BN-Opt —
// optimizer moments, so the state is small (kilobytes) next to the model it
// adapts (megabytes). That asymmetry is what lets the serving layer share a
// few model replicas among many streams: each stream keeps only its state,
// and a replica swaps stream states in and out between Process calls.
type AdapterState interface {
	isAdapterState()
}

// Stateful is implemented by adapters whose Process mutates adaptation
// state. CaptureState and RestoreState bracket a Process call to multiplex
// independent streams over one shared adapter: restore stream A's state,
// process A's batch, capture the updated state, and the adapter is free for
// stream B. Process is deterministic given (frozen weights, restored state,
// input), so a stream served this way is byte-identical to one that owned
// a private adapter — the serving determinism contract.
//
// Adapters that do not implement Stateful (No-Adapt) are stateless: their
// Process has no side effects that influence outputs, so requests from
// different streams may share — or even be coalesced into — Process calls.
type Stateful interface {
	Adapter
	// CaptureState deep-copies the current mutable adaptation state.
	CaptureState() AdapterState
	// RestoreState installs a previously captured state. The state must
	// have been captured from an adapter of the same algorithm over a
	// replica of the same model; it panics otherwise.
	RestoreState(AdapterState)
}

// bnState is BN-Norm's per-stream state: the adaptable BatchNorm tensors.
type bnState struct{ snap *bnSnapshot }

func (*bnState) isAdapterState() {}

// bnOptState adds BN-Opt's Adam moments to the BatchNorm state.
type bnOptState struct {
	snap *bnSnapshot
	adam *opt.AdamState
}

func (*bnOptState) isAdapterState() {}

// CaptureState implements Stateful.
func (a *bnNormAdapter) CaptureState() AdapterState {
	return &bnState{snap: snapshotBN(a.bns)}
}

// RestoreState implements Stateful.
func (a *bnNormAdapter) RestoreState(s AdapterState) {
	st, ok := s.(*bnState)
	if !ok {
		panic(fmt.Sprintf("core: BN-Norm cannot restore %T", s))
	}
	st.snap.restore(a.bns)
}

// CaptureState implements Stateful.
func (a *bnOptAdapter) CaptureState() AdapterState {
	return &bnOptState{snap: snapshotBN(a.bns), adam: a.optim.CaptureState()}
}

// RestoreState implements Stateful.
func (a *bnOptAdapter) RestoreState(s AdapterState) {
	st, ok := s.(*bnOptState)
	if !ok {
		panic(fmt.Sprintf("core: BN-Opt cannot restore %T", s))
	}
	st.snap.restore(a.bns)
	a.optim.RestoreState(st.adam)
}
