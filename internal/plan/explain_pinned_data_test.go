package plan_test

// The \explain text of TestExplainPinned's cases, recorded at 0cc6502. The
// four star cases differ from that recording in the estimates from the first
// probe on: a probe does not narrow the running estimate — the scans never
// folded it, and \explain now prints the estimate the trace records, where
// it folded the dimension's live fraction (82.50% for dim1) before.
var (
	pinnedExplainStarAR = `pipeline: mode=ar over fact
  scan: a&r bit-sliced base of fact (filters cost-ordered by estimated selectivity) est=4616 rows
    filter fact.v in [0,3000] (est sel 74.46%, est=3437 rows)
    or: fact.g in [0,1] | fact.w in [3000,+inf] (est sel <= 67.76%, est=2329 rows)
  join 1/2: fact.fk1 -> dim1.id (fk probe) (est sel 82.50%, est=2329 rows)
    filter dim1.r in [1,6] (est sel 82.50%, est=1921 rows)
    filter dim1.a in [0,80] (est sel 90.00%, est=1729 rows)
  join 2/2: fact.fk2 -> dim2.id (fk probe) (est sel 100.00%, est=1729 rows)
    filter dim2.b in [10,90] (est sel 100.00%, est=1729 rows)
  delta: none
  group: g (device pre-group + refine) est<=5 groups
  aggregate: n=count(*), s=sum(dim2.s)
`
	pinnedExplainStarClassic = `pipeline: mode=classic over fact
  scan: classic row-major base of fact (filters in written order) est=4616 rows
    filter fact.v in [0,3000] (est sel 74.46%, est=3437 rows)
    or: fact.g in [0,1] | fact.w in [3000,+inf] (est sel <= 67.76%, est=2329 rows)
  join 1/2: fact.fk1 -> dim1.id (fk probe) (est sel 82.50%, est=2329 rows)
    filter dim1.a in [0,80] (est sel 90.00%, est=2096 rows)
    filter dim1.r in [1,6] (est sel 82.50%, est=1729 rows)
  join 2/2: fact.fk2 -> dim2.id (fk probe) (est sel 100.00%, est=1729 rows)
    filter dim2.b in [10,90] (est sel 100.00%, est=1729 rows)
  delta: none
  group: g (host rebuild over combined tuples) est<=5 groups
  aggregate: n=count(*), s=sum(dim2.s)
`
	pinnedExplainStarDeltaAR = `pipeline: mode=ar over fact
  scan: a&r bit-sliced base of fact (filters cost-ordered by estimated selectivity) est=4616 rows
    filter fact.v in [0,3000] (est sel 74.46%, est=3437 rows)
    or: fact.g in [0,1] | fact.w in [3000,+inf] (est sel <= 67.76%, est=2329 rows)
  join 1/2: fact.fk1 -> dim1.id (fk probe) (est sel 82.50%, est=2329 rows)
    filter dim1.r in [1,6] (est sel 82.50%, est=1921 rows)
    filter dim1.a in [0,80] (est sel 90.00%, est=1729 rows)
  join 2/2: fact.fk2 -> dim2.id (fk probe) (est sel 100.00%, est=1729 rows)
    filter dim2.b in [10,90] (est sel 100.00%, est=1729 rows)
  delta: 1 rows scanned row-major, merged before grouping
  group: g (host rebuild over combined tuples) est<=5 groups
  aggregate: n=count(*), s=sum(dim2.s)
`
	pinnedExplainStarDeltaClassic = `pipeline: mode=classic over fact
  scan: classic row-major base of fact (filters in written order) est=4616 rows
    filter fact.v in [0,3000] (est sel 74.46%, est=3437 rows)
    or: fact.g in [0,1] | fact.w in [3000,+inf] (est sel <= 67.76%, est=2329 rows)
  join 1/2: fact.fk1 -> dim1.id (fk probe) (est sel 82.50%, est=2329 rows)
    filter dim1.a in [0,80] (est sel 90.00%, est=2096 rows)
    filter dim1.r in [1,6] (est sel 82.50%, est=1729 rows)
  join 2/2: fact.fk2 -> dim2.id (fk probe) (est sel 100.00%, est=1729 rows)
    filter dim2.b in [10,90] (est sel 100.00%, est=1729 rows)
  delta: 1 rows scanned row-major, merged before grouping
  group: g (host rebuild over combined tuples) est<=5 groups
  aggregate: n=count(*), s=sum(dim2.s)
`
	pinnedExplainQ1 = `pipeline: mode=ar over lineitem
  scan: a&r bit-sliced base of lineitem (filters cost-ordered by estimated selectivity) est=12000 rows
    filter lineitem.l_shipdate in [-inf,2436] (est sel 96.50%, est=11581 rows)
  delta: none
  refine: nothing to refine — every column read is device resident
  group: l_returnflag,l_linestatus (device pre-group + refine) est<=3 groups
  aggregate: sum_qty=sum(l_quantity), sum_base_price=sum(l_extendedprice), sum_disc_price=sum((l_extendedprice * (100 - l_discount))), sum_charge=sum(((l_extendedprice * (100 - l_discount)) * (100 + l_tax))), avg_qty=avg(l_quantity), avg_price=avg(l_extendedprice), avg_disc=avg(l_discount), count_order=count(*)
`
	pinnedExplainRangeAR = `scatter: ev over 2 partitions (partition by range(v) partitions 2)
  partition 0: ev.p0, pruned (filters on v exclude its slab)
  partition 1: ev.p1, mode=ar, 1405 live rows, est ~517 rows out
  gather: merge the partitions' accumulators in partition order, shared tail (having/order) over ev
per-partition plan (partition 1 shown):
  pipeline: mode=ar over ev.p1
    scan: a&r bit-sliced base of ev.p1 (filters cost-ordered by estimated selectivity) est=1403 rows
      filter ev.p1.w in [100,600] (est sel 50.20%, est=704 rows)
      filter ev.p1.v in [0,1500] (est sel 73.36%, est=517 rows)
    delta: 2 rows scanned row-major, merged before grouping
    aggregate: n=count(*), s=sum(w)
`
	pinnedExplainRangeClassic = `scatter: ev over 2 partitions (partition by range(v) partitions 2)
  partition 0: ev.p0, pruned (filters on v exclude its slab)
  partition 1: ev.p1, mode=classic, 1405 live rows, est ~517 rows out
  gather: merge the partitions' accumulators in partition order, shared tail (having/order) over ev
per-partition plan (partition 1 shown):
  pipeline: mode=classic over ev.p1
    scan: classic row-major base of ev.p1 (filters in written order) est=1403 rows
      filter ev.p1.v in [0,1500] (est sel 73.36%, est=1029 rows)
      filter ev.p1.w in [100,600] (est sel 50.20%, est=517 rows)
    delta: 2 rows scanned row-major, merged before grouping
    aggregate: n=count(*), s=sum(w)
`
	pinnedExplainAnchorAR = `pipeline: mode=ar over fact
  scan: a&r bit-sliced base of fact (filters cost-ordered by estimated selectivity) est=4616 rows
  delta: none
  group: g (device pre-group + refine) est<=5 groups
  aggregate: n=count(*), s=sum(w)
`
	pinnedExplainAnchorClassic = `pipeline: mode=classic over fact
  scan: classic row-major base of fact (filters in written order) est=4616 rows
  delta: none
  group: g (host rebuild over combined tuples) est<=5 groups
  aggregate: n=count(*), s=sum(w)
`
)
