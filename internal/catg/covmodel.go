package catg

import (
	"fmt"
	"sort"

	"crve/internal/coverage"
	"crve/internal/nodespec"
	"crve/internal/stbus"
)

// CoverageModel is the CATG functional-coverage model: a coverage group
// whose bins are derived from the DUT configuration and the traffic
// constraints, so that every declared bin is reachable and "full functional
// coverage" (the paper's sign-off criterion) is a meaningful target.
//
// Env feeds it the transactions the initiator-side assemblers complete and
// each cycle's count of requesting initiators; because its input is only
// what is observed at the ports, the same tests with the same seeds produce
// identical coverage on the RTL and the BCA view — the equality the paper
// requires.
type CoverageModel struct {
	Group *coverage.Group

	node nodespec.Config
	tc   TrafficConfig

	hasUnmapped bool
	hasProg     bool
	hasChunk    bool
	hasOOO      bool
	multiInit   bool

	// Preresolved bin handles (nil = bin undeclared for this configuration).
	// The transaction sampler runs on every initiator-side completion and
	// dominated the RTL-view throughput profile when it formatted bin names
	// and looked them up per event; with handles a sample is counter
	// increments only. Resolved once by resolveBins after the group is
	// declared; nil handles no-op on Inc, matching HitOK's tolerance of
	// undeclared bins.
	opBin                          [256]*coverage.Bin // opcode → "opcode" bin
	lenBin                         [256]*coverage.Bin // opcode → "req_pkt_len" bin
	initBin                        []*coverage.Bin
	tgtBin                         []*coverage.Bin   // target → "route" bin
	crossBin                       [][]*coverage.Bin // [initiator][target] → "init_x_route" bin
	routeUnmappedBin, routeProgBin *coverage.Bin
	respOKBin, respErrBin          *coverage.Bin
	chunkPlainBin, chunkLockedBin  *coverage.Bin
	orderInBin, orderReBin         *coverage.Bin
	contSoloBin, contConcBin       *coverage.Bin
	latBin                         [4]*coverage.Bin // lt5, lt10, lt20, ge20
}

// reachableOps lists the distinct opcodes the generator can emit.
func reachableOps(node nodespec.Config, tc TrafficConfig) []stbus.Opcode {
	seen := map[stbus.Opcode]bool{}
	var out []stbus.Opcode
	add := func(op stbus.Opcode) {
		if !seen[op] && op.ValidFor(node.Port.Type, node.Port.BusBytes()) {
			seen[op] = true
			out = append(out, op)
		}
	}
	for _, k := range tc.Kinds {
		for _, size := range tc.Sizes {
			if (k == stbus.KindRMW || k == stbus.KindSwap) && size > 8 {
				size = 4
			}
			add(stbus.Op(k, size))
		}
	}
	if tc.UnmappedPct > 0 {
		add(stbus.LD4)
		add(stbus.ST4)
	}
	if tc.ProgPct > 0 && node.ProgPort {
		add(stbus.LD4)
		add(stbus.ST4)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NewCoverageModel declares the coverage group for the given DUT and traffic
// configuration.
func NewCoverageModel(node nodespec.Config, tc TrafficConfig) *CoverageModel {
	node = node.WithDefaults()
	tc = tc.WithDefaults()
	cm := &CoverageModel{
		Group:       coverage.NewGroup("catg." + node.Name),
		node:        node,
		tc:          tc,
		hasUnmapped: tc.UnmappedPct > 0,
		hasProg:     tc.ProgPct > 0 && node.ProgPort,
		hasChunk:    tc.ChunkPct > 0,
		multiInit:   node.NumInit > 1,
	}
	cm.hasOOO = node.Port.Type == stbus.Type3 && node.NumTgt > 1 && node.PipeSize > 1
	g := cm.Group

	var opBins []string
	for _, op := range reachableOps(node, tc) {
		opBins = append(opBins, op.String())
	}
	g.Item("opcode", opBins...)

	var initBins []string
	for i := 0; i < node.NumInit; i++ {
		initBins = append(initBins, fmt.Sprintf("init%d", i))
	}
	g.Item("initiator", initBins...)

	var routeBins []string
	reach := map[int]bool{}
	for i := 0; i < node.NumInit; i++ {
		for t := 0; t < node.NumTgt; t++ {
			if node.Connected(i, t) {
				reach[t] = true
			}
		}
	}
	for t := 0; t < node.NumTgt; t++ {
		if reach[t] {
			routeBins = append(routeBins, fmt.Sprintf("tgt%d", t))
		}
	}
	if cm.hasUnmapped {
		routeBins = append(routeBins, "unmapped")
	}
	if cm.hasProg {
		routeBins = append(routeBins, "prog")
	}
	g.Item("route", routeBins...)

	// Cross initiator × reachable route (only pairs the generator can emit).
	var crossBins []string
	for i := 0; i < node.NumInit; i++ {
		for t := 0; t < node.NumTgt; t++ {
			if node.Connected(i, t) {
				crossBins = append(crossBins, fmt.Sprintf("init%d×tgt%d", i, t))
			}
		}
	}
	g.Item("init_x_route", crossBins...)

	// Achievable request packet lengths.
	lens := map[int]bool{}
	for _, op := range reachableOps(node, tc) {
		lens[stbus.ReqLen(node.Port.Type, op, node.Port.BusBytes())] = true
	}
	var lenBins []string
	var ls []int
	for l := range lens {
		ls = append(ls, l)
	}
	sort.Ints(ls)
	for _, l := range ls {
		lenBins = append(lenBins, fmt.Sprintf("%dcell", l))
	}
	g.Item("req_pkt_len", lenBins...)

	respBins := []string{"ok"}
	if cm.hasUnmapped {
		respBins = append(respBins, "err")
	}
	g.Item("response", respBins...)

	if cm.hasChunk {
		g.Item("chunk", "plain", "locked")
	}
	if cm.hasOOO {
		g.Item("completion_order", "in_order", "reordered")
	}
	if cm.multiInit {
		g.Item("contention", "solo", "concurrent")
	}
	g.Item("latency", "lt5", "lt10", "lt20", "ge20")
	cm.resolveBins()
	return cm
}

// clone returns a copy of the model over a deep copy of its group, its bin
// handles resolved again in the copy.
func (cm *CoverageModel) clone() *CoverageModel {
	c := *cm
	c.Group = cm.Group.Clone()
	c.resolveBins()
	return &c
}

// resolveBins fills the preresolved handle tables from the declared group.
// Counter returns nil for bins this configuration never declared, and the
// per-opcode tables are total over the opcode byte so the sampler can index
// them without validity checks.
func (cm *CoverageModel) resolveBins() {
	g := cm.Group
	opIt, lenIt := g.MustItem("opcode"), g.MustItem("req_pkt_len")
	for o := 0; o < 256; o++ {
		op := stbus.Opcode(o)
		if !op.Valid() {
			continue
		}
		cm.opBin[o] = opIt.Counter(op.String())
		l := stbus.ReqLen(cm.node.Port.Type, op, cm.node.Port.BusBytes())
		cm.lenBin[o] = lenIt.Counter(fmt.Sprintf("%dcell", l))
	}
	initIt, routeIt, crossIt := g.MustItem("initiator"), g.MustItem("route"), g.MustItem("init_x_route")
	cm.initBin = make([]*coverage.Bin, cm.node.NumInit)
	cm.crossBin = make([][]*coverage.Bin, cm.node.NumInit)
	for i := 0; i < cm.node.NumInit; i++ {
		cm.initBin[i] = initIt.Counter(fmt.Sprintf("init%d", i))
		cm.crossBin[i] = make([]*coverage.Bin, cm.node.NumTgt)
		for t := 0; t < cm.node.NumTgt; t++ {
			cm.crossBin[i][t] = crossIt.Counter(fmt.Sprintf("init%d×tgt%d", i, t))
		}
	}
	cm.tgtBin = make([]*coverage.Bin, cm.node.NumTgt)
	for t := 0; t < cm.node.NumTgt; t++ {
		cm.tgtBin[t] = routeIt.Counter(fmt.Sprintf("tgt%d", t))
	}
	cm.routeUnmappedBin = routeIt.Counter("unmapped")
	cm.routeProgBin = routeIt.Counter("prog")
	respIt := g.MustItem("response")
	cm.respOKBin, cm.respErrBin = respIt.Counter("ok"), respIt.Counter("err")
	if cm.hasChunk {
		it := g.MustItem("chunk")
		cm.chunkPlainBin, cm.chunkLockedBin = it.Counter("plain"), it.Counter("locked")
	}
	if cm.hasOOO {
		it := g.MustItem("completion_order")
		cm.orderInBin, cm.orderReBin = it.Counter("in_order"), it.Counter("reordered")
	}
	if cm.multiInit {
		it := g.MustItem("contention")
		cm.contSoloBin, cm.contConcBin = it.Counter("solo"), it.Counter("concurrent")
	}
	latIt := g.MustItem("latency")
	for i, name := range []string{"lt5", "lt10", "lt20", "ge20"} {
		cm.latBin[i] = latIt.Counter(name)
	}
}

// SampleContention records one cycle's count of requesting initiators.
// Contention counts simultaneous requests (not grants): a shared bus grants
// at most one initiator per cycle, but its arbiter still sees concurrent
// requests.
func (cm *CoverageModel) SampleContention(requesting int) {
	if !cm.multiInit {
		return
	}
	switch {
	case requesting > 1:
		cm.contConcBin.Inc()
	case requesting == 1:
		cm.contSoloBin.Inc()
	}
}

// SampleTransaction records one completed initiator-side transaction.
// completedSeq is the transaction's issue sequence number and oldestPending
// the oldest still-pending issue number at its port (0 when none) — the pair
// the out-of-order detector needs.
func (cm *CoverageModel) SampleTransaction(tr *stbus.Transaction, completedSeq, oldestPending uint64) {
	cm.opBin[tr.Opc].Inc()
	if tr.Initiator >= 0 && tr.Initiator < len(cm.initBin) {
		cm.initBin[tr.Initiator].Inc()
	}
	switch {
	case tr.Target >= 0:
		if tr.Target < len(cm.tgtBin) {
			cm.tgtBin[tr.Target].Inc()
		}
		if tr.Initiator >= 0 && tr.Initiator < len(cm.crossBin) && tr.Target < len(cm.crossBin[tr.Initiator]) {
			cm.crossBin[tr.Initiator][tr.Target].Inc()
		}
	case tr.Target == RouteUnmapped:
		cm.routeUnmappedBin.Inc()
	case tr.Target == RouteProg:
		cm.routeProgBin.Inc()
	}
	if tr.Opc.Valid() {
		cm.lenBin[tr.Opc].Inc()
	}
	if tr.Err {
		cm.respErrBin.Inc()
	} else {
		cm.respOKBin.Inc()
	}
	if cm.hasChunk {
		if tr.Lck {
			cm.chunkLockedBin.Inc()
		} else {
			cm.chunkPlainBin.Inc()
		}
	}
	if cm.hasOOO {
		// Reordered when an older pending transaction still waits while this
		// one completes.
		if oldestPending != 0 && oldestPending < completedSeq {
			cm.orderReBin.Inc()
		} else {
			cm.orderInBin.Inc()
		}
	}
	lat := tr.Latency()
	switch {
	case lat < 5:
		cm.latBin[0].Inc()
	case lat < 10:
		cm.latBin[1].Inc()
	case lat < 20:
		cm.latBin[2].Inc()
	default:
		cm.latBin[3].Inc()
	}
}
