package bgp

import (
	"cmp"
	"net/netip"
	"slices"

	"discs/internal/netsim"
	"discs/internal/topology"
)

// prefixID is a prefix's dense index in its Network's prefixTable.
type prefixID uint32

// prefixTable assigns every prefix a network originates a dense id, so
// speakers index their RIB with a slice instead of hashing
// netip.Prefix keys. One table is shared by all speakers of a Network.
// Ids are assigned by Originate and by checkpoint restore, both of
// which run while the simulator is parked; during a run the table is
// read-only and safe to share across parsim lanes.
type prefixTable struct {
	ids      map[netip.Prefix]prefixID
	prefixes []netip.Prefix
	strs     []string // prefixes[i].String(), the determinism sort key
}

// intern returns p's id, assigning the next one if p is new.
func (t *prefixTable) intern(p netip.Prefix) prefixID {
	if id, ok := t.ids[p]; ok {
		return id
	}
	if t.ids == nil {
		t.ids = make(map[netip.Prefix]prefixID)
	}
	id := prefixID(len(t.prefixes))
	t.ids[p] = id
	t.prefixes = append(t.prefixes, p)
	t.strs = append(t.strs, p.String())
	return id
}

// sortByString orders ids by their prefixes' string form, the order
// every prefix walk that emits UPDATEs uses.
func (t *prefixTable) sortByString(ids []prefixID) {
	slices.SortFunc(ids, func(a, b prefixID) int { return cmp.Compare(t.strs[a], t.strs[b]) })
}

// sortByAddr orders ids by address, then length: the checkpoint order.
func (t *prefixTable) sortByAddr(ids []prefixID) {
	slices.SortFunc(ids, func(a, b prefixID) int {
		pa, pb := t.prefixes[a], t.prefixes[b]
		if c := pa.Addr().Compare(pb.Addr()); c != 0 {
			return c
		}
		return cmp.Compare(pa.Bits(), pb.Bits())
	})
}

// ribEntry is one speaker's routing state for one prefix: the
// Adj-RIB-In candidates, sorted by From, and the Loc-RIB best. best is
// either locally originated or one of cands.
type ribEntry struct {
	best  *Route
	cands []*Route
	// learned records that an announcement for the prefix has been
	// received (or restored); the entry stays in the checkpointed
	// Adj-RIB-In even after withdrawals empty cands.
	learned bool
}

func hasRoute(e *ribEntry) bool { return e.best != nil }

// find returns the index of the candidate from the given neighbor, or
// the index it would be inserted at.
func (e *ribEntry) find(from topology.ASN) (int, bool) {
	return slices.BinarySearchFunc(e.cands, from, func(r *Route, f topology.ASN) int { return cmp.Compare(r.From, f) })
}

// put installs r as the candidate from r.From, replacing any previous
// one.
func (e *ribEntry) put(r *Route) {
	e.learned = true
	if i, ok := e.find(r.From); ok {
		e.cands[i] = r
	} else {
		if e.cands == nil {
			// Most prefixes reach a speaker over one or two sessions.
			e.cands = make([]*Route, 0, 2)
		}
		e.cands = slices.Insert(e.cands, i, r)
	}
}

// drop removes the candidate from the given neighbor and reports
// whether there was one.
func (e *ribEntry) drop(from topology.ASN) bool {
	i, ok := e.find(from)
	if ok {
		e.cands = slices.Delete(e.cands, i, i+1)
	}
	return ok
}

// neighbor is one eBGP session.
type neighbor struct {
	asn  topology.ASN
	node *netsim.Node
	rel  topology.Relationship // our perspective of the hop to the neighbor
}

// exportsTo is the Gao-Rexford export policy: routes from customers
// (and local routes) go to every neighbor, routes from peers and
// providers to customers only, and no route goes back to the neighbor
// it came from.
func exportsTo(r *Route, nb *neighbor) bool {
	return nb.asn != r.From &&
		(r.Local || r.FromRel == topology.ProviderToCustomer || nb.rel == topology.ProviderToCustomer)
}
