package service

import (
	"context"
	"net"
)

// SetTestDialHook installs a transport dial override for every node
// built afterwards and returns a restore func. Tests use it to model
// unreachable peers whose dials hang until canceled.
func SetTestDialHook(d func(ctx context.Context, addr string) (net.Conn, error)) func() {
	old := testDialHook
	testDialHook = d
	return func() { testDialHook = old }
}

// PendingTimers returns how many wall-clock timers the node has armed
// that have neither fired nor been stopped.
func (n *Node) PendingTimers() int {
	n.timerMu.Lock()
	defer n.timerMu.Unlock()
	return len(n.timers)
}
