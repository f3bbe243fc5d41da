package sql

import "fmt"

// The physical plan tree. A Plan's hint is no longer a dispatch tag
// the engine switches on — it is a tree constructor: Tree() lowers
// the plan into a composition of physical nodes (scans, joins, sort,
// aggregate) that the engine's streaming-operator compiler walks
// one-to-one. New access-path combinations are new tree shapes, not
// new engine routines.

// NodeKind names a physical operator.
type NodeKind int

// The physical node kinds.
const (
	// NodeHeapScan is a full heap scan with the access's optional
	// range predicate folded in.
	NodeHeapScan NodeKind = iota
	// NodeIndexScan selects the access's key range through a
	// non-clustered B-tree, RID-fetching each record.
	NodeIndexScan
	// NodeIndexOnlyScan answers the range from B-tree leaves alone.
	NodeIndexOnlyScan
	// NodeFilter applies a residual range predicate to an interior
	// stream (no current hint emits one; plan-tree fuzzing and future
	// planners do).
	NodeFilter
	// NodeHashJoin is the in-memory chained-hash equijoin; Left is
	// the probe input, Right the build input.
	NodeHashJoin
	// NodeGraceJoin is the Grace/hybrid partitioned equijoin; Left is
	// the probe input, Right the build input.
	NodeGraceJoin
	// NodeSort externally sorts its input.
	NodeSort
	// NodeAgg is the terminal streaming aggregate.
	NodeAgg
	// NodeHashAgg is the terminal hash-grouped aggregate.
	NodeHashAgg
)

// String names the node kind.
func (k NodeKind) String() string {
	switch k {
	case NodeHeapScan:
		return "heap-scan"
	case NodeIndexScan:
		return "index-scan"
	case NodeIndexOnlyScan:
		return "index-only-scan"
	case NodeFilter:
		return "filter"
	case NodeHashJoin:
		return "hash-join"
	case NodeGraceJoin:
		return "grace-join"
	case NodeSort:
		return "sort"
	case NodeAgg:
		return "agg"
	case NodeHashAgg:
		return "hash-agg"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is one physical operator of a plan tree. Scans set Acc; joins
// set Left (probe) and Right (build) with their join columns; unary
// operators set Left.
type Node struct {
	Kind NodeKind
	// Acc is the table access of a scan node.
	Acc *TableAccess
	// Left is the probe input of a join, or the sole input of a unary
	// node.
	Left *Node
	// Right is the build input of a join.
	Right *Node
	// LeftCol/RightCol are the equijoin columns on Left/Right.
	LeftCol, RightCol int
	// Lo/Hi bound a NodeFilter's half-open key range.
	Lo, Hi int32
}

// Tree lowers the plan (including its hint) into its physical plan
// tree, memoised on first call: the shape is a pure function of the
// plan's fields, and the measurement protocol re-executes plans
// many times. Hint/shape mismatches — a join hint on a single-table
// plan, an index hint with no index — surface here, once, before any
// event is emitted.
func (p *Plan) Tree() (*Node, error) {
	if p.tree == nil && p.treeErr == nil {
		p.tree, p.treeErr = p.buildTree()
	}
	return p.tree, p.treeErr
}

func (p *Plan) buildTree() (*Node, error) {
	agg := func(child *Node) *Node { return &Node{Kind: NodeAgg, Left: child} }
	scan := func(acc *TableAccess) *Node { return &Node{Kind: NodeHeapScan, Acc: acc} }
	needIndex := func(acc *TableAccess) error {
		if acc.Table.Indexes[acc.FilterCol] == nil {
			return fmt.Errorf("sql: plan wants an index on %s column %d but none exists",
				acc.Table.Name, acc.FilterCol)
		}
		return nil
	}
	hashJoin := func(probe, build *Node) *Node {
		return &Node{Kind: NodeHashJoin, Left: probe, Right: build,
			LeftCol: p.OuterCol, RightCol: p.InnerCol}
	}

	switch p.Hint {
	case HintGraceJoin:
		if !p.IsJoin() {
			return nil, fmt.Errorf("sql: %s hint on a single-table plan", p.Hint)
		}
		return agg(&Node{Kind: NodeGraceJoin, Left: scan(p.Outer), Right: scan(p.Inner),
			LeftCol: p.OuterCol, RightCol: p.InnerCol}), nil

	case HintSortAgg:
		if p.IsJoin() {
			return nil, fmt.Errorf("sql: %s hint on a join plan", p.Hint)
		}
		return agg(&Node{Kind: NodeSort, Left: scan(p.Outer)}), nil

	case HintIndexOnly:
		if p.IsJoin() {
			return nil, fmt.Errorf("sql: %s hint on a join plan", p.Hint)
		}
		if !p.Outer.HasFilter {
			return nil, fmt.Errorf("sql: %s scan needs a range predicate", p.Hint)
		}
		if err := needIndex(p.Outer); err != nil {
			return nil, err
		}
		if !p.CountAll && !(p.AggTable == p.Outer.Table && p.AggCol == p.Outer.FilterCol) {
			return nil, fmt.Errorf("sql: %s scan cannot compute an aggregate over a non-indexed column", p.Hint)
		}
		return agg(&Node{Kind: NodeIndexOnlyScan, Acc: p.Outer}), nil

	case HintJoinSortAgg:
		if !p.IsJoin() {
			return nil, fmt.Errorf("sql: %s hint on a single-table plan", p.Hint)
		}
		return agg(&Node{Kind: NodeSort, Left: hashJoin(scan(p.Outer), scan(p.Inner))}), nil

	case HintIndexProbeJoin:
		if !p.IsJoin() {
			return nil, fmt.Errorf("sql: %s hint on a single-table plan", p.Hint)
		}
		if !p.Outer.HasFilter {
			return nil, fmt.Errorf("sql: %s needs a range predicate on the probe table", p.Hint)
		}
		if err := needIndex(p.Outer); err != nil {
			return nil, err
		}
		return agg(hashJoin(&Node{Kind: NodeIndexScan, Acc: p.Outer}, scan(p.Inner))), nil
	}

	// Default paths (HintNone).
	switch {
	case p.IsJoin():
		return agg(hashJoin(scan(p.Outer), scan(p.Inner))), nil
	case p.Outer.UseIndex:
		if err := needIndex(p.Outer); err != nil {
			return nil, err
		}
		return agg(&Node{Kind: NodeIndexScan, Acc: p.Outer}), nil
	default:
		return agg(scan(p.Outer)), nil
	}
}
