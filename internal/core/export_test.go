package core

// Views of an Agent's private control state for the external tests in
// agent_test.go, which drive agents through runner.Run (a test inside
// package core cannot import runner: runner imports cc, which imports core).

// InStartup reports whether the agent is still in slow start.
func InStartup(a *Agent) bool { return a.inStartup }

// InDrain reports whether the agent's latest decision fell in a drain
// window or on the step that restores the window after one: the decisions
// whose window does not follow Eq. 3.
func InDrain(a *Agent) bool {
	return a.DrainPeriod > 0 && (a.mtpCount+a.drainOffset)%a.DrainPeriod <= a.DrainLen
}
