package runtime

import "repro/internal/node"

// OnNew runs f on every executor New builds, before its first step, until
// the returned restore is called.
func OnNew(f func(*Executor)) (restore func()) {
	prev := testHookNew
	testHookNew = f
	return func() { testHookNew = prev }
}

// SetIdleStep replaces the named node's idle step; nil strips it, so every
// firing of the node runs its full step.
func (e *Executor) SetIdleStep(name string, idle node.IdleFunc) {
	e.byName[name].idle = idle
}

// OutputEnabled reports whether the named controller node's outputs are
// currently enabled; plain nodes are always enabled.
func (e *Executor) OutputEnabled(nodeName string) bool {
	r, ok := e.byName[nodeName]
	return !ok || r.oe
}
