package httpgw

import "cascade/internal/audit"

// Auditor returns the node's online invariant auditor.
func (n *Node) Auditor() *audit.Auditor { return n.auditor }

// Ledger returns the node's predicted-vs-realized cost ledger.
func (n *Node) Ledger() *audit.Ledger { return n.ledger }
