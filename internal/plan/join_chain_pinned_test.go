package plan_test

// The execution model of the four joined shapes of
// TestJoinChainExecutionModelPinned as executionModel renders it, recorded at
// 739b4af by the same test body.
var (
	pinnedQ14 = map[string]string{
		"ar": `gpu=208185 cpu=123161 pci=94344 candidates=5878 refined=689 approx={[0,5878] [[0,3447867227] [0,19831143486]]}
[approximate] bwd.uselectapproximate(lineitem.l_shipdate) rows=5878 est=5878 gpu=48000 cpu=0 pci=0
[approximate] bwd.leftjoinapproximate(lineitem.l_partkey -> part) rows=5878 est=-1 gpu=33526 cpu=0 pci=0
[approximate] bwd.leftjoinapproximate(part.p_type) rows=5878 est=-1 gpu=31567 cpu=0 pci=0
[approximate] bwd.leftjoinapproximate(lineitem.l_extendedprice) rows=5878 est=-1 gpu=33134 cpu=0 pci=0
[approximate] bwd.leftjoinapproximate(lineitem.l_discount) rows=5878 est=-1 gpu=31175 cpu=0 pci=0
[approximate] bwd.sumapproximate(promo_revenue) rows=5878 est=-1 gpu=30783 cpu=0 pci=0
[approximate] bwd.sumapproximate(total_revenue) rows=5878 est=-1 gpu=0 cpu=0 pci=0
[ship] ship(lineitem, 3 projections) rows=5878 est=-1 gpu=0 cpu=0 pci=94344
[refine] bwd.uselectrefine(lineitem.l_shipdate) rows=689 est=5878 gpu=0 cpu=49542 pci=0
[refine] bwd.leftjoinrefine(lineitem.l_partkey -> part) rows=689 est=-1 gpu=0 cpu=0 pci=0
[refine] bwd.leftjoinrefine(p_type) rows=689 est=-1 gpu=0 cpu=17889 pci=0
[refine] bwd.leftjoinrefine(l_extendedprice) rows=689 est=-1 gpu=0 cpu=23678 pci=0
[refine] bwd.leftjoinrefine(l_discount) rows=689 est=-1 gpu=0 cpu=21784 pci=0
[aggregate] bwd.sumrefine(promo_revenue) rows=1 est=-1 gpu=0 cpu=10268 pci=0
[aggregate] bwd.sumrefine(total_revenue) rows=1 est=-1 gpu=0 cpu=0 pci=0
`,
		"classic": `gpu=0 cpu=281899 pci=0 candidates=689 refined=689 approx={[0,0] []}
[bulk] algebra.uselect(lineitem.l_shipdate) rows=689 est=5878 gpu=0 cpu=124755 pci=0
[bulk] algebra.leftjoin(lineitem.l_partkey -> part) rows=689 est=-1 gpu=0 cpu=40517 pci=0
[bulk] algebra.leftjoin(l_discount) rows=689 est=-1 gpu=0 cpu=27148 pci=0
[bulk] algebra.leftjoin(l_extendedprice) rows=689 est=-1 gpu=0 cpu=28182 pci=0
[bulk] algebra.leftjoin(p_type) rows=689 est=-1 gpu=0 cpu=6445 pci=0
[aggregate] aggr.sum(promo_revenue) rows=1 est=-1 gpu=0 cpu=54852 pci=0
[aggregate] aggr.sum(total_revenue) rows=1 est=-1 gpu=0 cpu=0 pci=0
`,
	}
	pinnedTwoJoins = map[string]string{
		"ar": `gpu=447468 cpu=339010 pci=124043 candidates=3760 refined=3422 approx={[2456,3760] [[2456,3760] [126479,211687] [4032,4095]]}
[approximate] bwd.uselectapproximate(fact.v) rows=9893 est=9893 gpu=36000 cpu=0 pci=0
[approximate] bwd.leftjoinapproximate(fact.fk1 -> dim1) rows=9893 est=-1 gpu=35935 cpu=0 pci=0
[approximate] bwd.uselectapproximate(dim1.a) rows=5196 est=5194 gpu=34750 cpu=0 pci=0
[approximate] bwd.uselectapproximate(dim1.r) rows=3760 est=4285 gpu=32630 cpu=0 pci=0
[approximate] bwd.leftjoinapproximate(fact.fk2 -> dim2) rows=3760 est=-1 gpu=32256 cpu=0 pci=0
[approximate] bwd.uselectapproximate(dim2.b) rows=3760 est=4285 gpu=32318 cpu=0 pci=0
[approximate] bwd.groupapproximate(g) rows=3760 est=-1 gpu=120698 cpu=0 pci=0
[approximate] bwd.leftjoinapproximate(dim1.a) rows=3760 est=-1 gpu=30814 cpu=0 pci=0
[approximate] bwd.leftjoinapproximate(dim2.s) rows=3760 est=-1 gpu=30689 cpu=0 pci=0
[approximate] bwd.leftjoinapproximate(fact.w) rows=3760 est=-1 gpu=30877 cpu=0 pci=0
[approximate] bwd.countapproximate(n) rows=3760 est=-1 gpu=30501 cpu=0 pci=0
[approximate] bwd.sumapproximate(s) rows=3760 est=-1 gpu=0 cpu=0 pci=0
[approximate] bwd.maxapproximate(m) rows=3760 est=-1 gpu=0 cpu=0 pci=0
[ship] ship(fact, 3 projections) rows=3760 est=-1 gpu=0 cpu=0 pci=124043
[refine] bwd.uselectrefine(fact.v) rows=3729 est=9893 gpu=0 cpu=25738 pci=0
[refine] bwd.leftjoinrefine(fact.fk1 -> dim1) rows=3729 est=-1 gpu=0 cpu=0 pci=0
[refine] bwd.uselectrefine(dim1.a) rows=3729 est=5194 gpu=0 cpu=42328 pci=0
[refine] bwd.uselectrefine(dim1.r) rows=3729 est=4285 gpu=0 cpu=0 pci=0
[refine] bwd.leftjoinrefine(fact.fk2 -> dim2) rows=3729 est=-1 gpu=0 cpu=0 pci=0
[refine] bwd.uselectrefine(dim2.b) rows=3422 est=4285 gpu=0 cpu=40482 pci=0
[refine] bwd.leftjoinrefine(a) rows=3422 est=-1 gpu=0 cpu=48528 pci=0
[refine] bwd.leftjoinrefine(s) rows=3422 est=-1 gpu=0 cpu=30052 pci=0
[refine] bwd.leftjoinrefine(w) rows=3422 est=-1 gpu=0 cpu=56234 pci=0
[refine] bwd.grouprefine(g) rows=5 est=-1 gpu=0 cpu=45740 pci=0
[aggregate] bwd.countrefine(n) rows=5 est=-1 gpu=0 cpu=49908 pci=0
[aggregate] bwd.sumrefine(s) rows=5 est=-1 gpu=0 cpu=0 pci=0
[aggregate] bwd.maxrefine(m) rows=5 est=-1 gpu=0 cpu=0 pci=0
`,
		"classic": `gpu=0 cpu=1065228 pci=0 candidates=3422 refined=3422 approx={[0,0] []}
[bulk] algebra.uselect(fact.v) rows=9813 est=9893 gpu=0 cpu=81252 pci=0
[bulk] algebra.leftjoin(fact.fk1 -> dim1) rows=9813 est=-1 gpu=0 cpu=269699 pci=0
[bulk] algebra.uselect(dim1.a) rows=5155 est=5194 gpu=0 cpu=121836 pci=0
[bulk] algebra.uselect(dim1.r) rows=3729 est=4285 gpu=0 cpu=65940 pci=0
[bulk] algebra.leftjoin(fact.fk2 -> dim2) rows=3729 est=-1 gpu=0 cpu=129767 pci=0
[bulk] algebra.uselect(dim2.b) rows=3422 est=4285 gpu=0 cpu=48798 pci=0
[bulk] algebra.leftjoin(g) rows=3422 est=-1 gpu=0 cpu=69376 pci=0
[bulk] algebra.leftjoin(w) rows=3422 est=-1 gpu=0 cpu=69376 pci=0
[bulk] algebra.leftjoin(a) rows=3422 est=-1 gpu=0 cpu=29456 pci=0
[bulk] algebra.leftjoin(s) rows=3422 est=-1 gpu=0 cpu=29426 pci=0
[bulk] group.new(g) rows=5 est=-1 gpu=0 cpu=53330 pci=0
[aggregate] aggr.count(n) rows=5 est=-1 gpu=0 cpu=96972 pci=0
[aggregate] aggr.sum(s) rows=5 est=-1 gpu=0 cpu=0 pci=0
[aggregate] aggr.max(m) rows=5 est=-1 gpu=0 cpu=0 pci=0
`,
	}
	pinnedDimDeletion = map[string]string{
		"ar": `gpu=237954 cpu=291297 pci=70875 candidates=10221 refined=9859 approx={[8441,10221] [[8441,10221] [29385,37069]]}
[approximate] bwd.uselectapproximate(fact.v) rows=14767 est=13682 gpu=36000 cpu=0 pci=0
[approximate] bwd.maskdeleted(fact) rows=13675 est=-1 gpu=32052 cpu=0 pci=0
[approximate] bwd.leftjoinapproximate(fact.fk1 -> dim1) rows=13675 est=-1 gpu=38205 cpu=0 pci=0
[approximate] bwd.maskdeleted(dim1) rows=11244 est=-1 gpu=31823 cpu=0 pci=0
[approximate] bwd.uselectapproximate(dim1.a) rows=10221 est=12313 gpu=36639 cpu=0 pci=0
[approximate] bwd.leftjoinapproximate(dim1.r) rows=10221 est=-1 gpu=31873 cpu=0 pci=0
[approximate] bwd.countapproximate(n) rows=10221 est=-1 gpu=31362 cpu=0 pci=0
[approximate] bwd.sumapproximate(s) rows=10221 est=-1 gpu=0 cpu=0 pci=0
[ship] ship(fact, 1 projections) rows=10221 est=-1 gpu=0 cpu=0 pci=70875
[refine] bwd.uselectrefine(fact.v) rows=10193 est=13682 gpu=0 cpu=58049 pci=0
[refine] bwd.leftjoinrefine(fact.fk1 -> dim1) rows=10193 est=-1 gpu=0 cpu=0 pci=0
[refine] bwd.uselectrefine(dim1.a) rows=9859 est=12313 gpu=0 cpu=110216 pci=0
[refine] bwd.leftjoinrefine(r) rows=9859 est=-1 gpu=0 cpu=81596 pci=0
[aggregate] bwd.countrefine(n) rows=1 est=-1 gpu=0 cpu=41436 pci=0
[aggregate] bwd.sumrefine(s) rows=1 est=-1 gpu=0 cpu=0 pci=0
`,
		"classic": `gpu=0 cpu=781982 pci=0 candidates=9859 refined=9859 approx={[0,0] []}
[bulk] algebra.uselect(fact.v) rows=14734 est=13682 gpu=0 cpu=100936 pci=0
[bulk] algebra.maskdeleted(fact) rows=13644 est=-1 gpu=0 cpu=62186 pci=0
[bulk] algebra.leftjoin(fact.fk1 -> dim1) rows=11215 est=-1 gpu=0 cpu=357812 pci=0
[bulk] algebra.uselect(dim1.a) rows=9859 est=12313 gpu=0 cpu=138660 pci=0
[bulk] algebra.leftjoin(r) rows=9859 est=-1 gpu=0 cpu=80952 pci=0
[aggregate] aggr.count(n) rows=1 est=-1 gpu=0 cpu=41436 pci=0
[aggregate] aggr.sum(s) rows=1 est=-1 gpu=0 cpu=0 pci=0
`,
	}
	pinnedOrJoin = map[string]string{
		"ar": `gpu=236034 cpu=285081 pci=75244 candidates=5125 refined=4958 approx={[4712,5125] [[4712,5125] [844597312,993085380]]}
[approximate] bwd.uselectapproximate(fact.g) rows=16013 est=16013 gpu=36000 cpu=0 pci=0
[approximate] bwd.uselectanyapproximate(fact.v|fact.w) rows=6421 est=7254 gpu=39607 cpu=0 pci=0
[approximate] bwd.leftjoinapproximate(fact.fk2 -> dim2) rows=6421 est=-1 gpu=33852 cpu=0 pci=0
[approximate] bwd.uselectapproximate(dim2.b) rows=5125 est=5803 gpu=33587 cpu=0 pci=0
[approximate] bwd.leftjoinapproximate(fact.w) rows=5125 est=-1 gpu=31195 cpu=0 pci=0
[approximate] bwd.leftjoinapproximate(dim2.b) rows=5125 est=-1 gpu=31110 cpu=0 pci=0
[approximate] bwd.countapproximate(n) rows=5125 est=-1 gpu=30683 cpu=0 pci=0
[approximate] bwd.sumapproximate(s) rows=5125 est=-1 gpu=0 cpu=0 pci=0
[ship] ship(fact, 2 projections) rows=5125 est=-1 gpu=0 cpu=0 pci=75244
[refine] bwd.uselectrefine(fact.g) rows=5125 est=16013 gpu=0 cpu=0 pci=0
[refine] bwd.uselectanyrefine(fact.v|fact.w) rows=4958 est=7254 gpu=0 cpu=44275 pci=0
[refine] bwd.leftjoinrefine(fact.fk2 -> dim2) rows=4958 est=-1 gpu=0 cpu=0 pci=0
[refine] bwd.uselectrefine(dim2.b) rows=4958 est=5803 gpu=0 cpu=55612 pci=0
[refine] bwd.leftjoinrefine(w) rows=4958 est=-1 gpu=0 cpu=75668 pci=0
[refine] bwd.leftjoinrefine(b) rows=4958 est=-1 gpu=0 cpu=67862 pci=0
[aggregate] bwd.countrefine(n) rows=1 est=-1 gpu=0 cpu=41664 pci=0
[aggregate] bwd.sumrefine(s) rows=1 est=-1 gpu=0 cpu=0 pci=0
`,
		"classic": `gpu=0 cpu=1048260 pci=0 candidates=4958 refined=4958 approx={[0,0] []}
[bulk] algebra.uselect(fact.g) rows=16013 est=16013 gpu=0 cpu=106052 pci=0
[bulk] algebra.uselectany(fact.v|fact.w) rows=6204 est=7254 gpu=0 cpu=470312 pci=0
[bulk] algebra.leftjoin(fact.fk2 -> dim2) rows=6204 est=-1 gpu=0 cpu=186692 pci=0
[bulk] algebra.uselect(dim2.b) rows=4958 est=5803 gpu=0 cpu=78498 pci=0
[bulk] algebra.leftjoin(w) rows=4958 est=-1 gpu=0 cpu=81664 pci=0
[bulk] algebra.leftjoin(b) rows=4958 est=-1 gpu=0 cpu=41714 pci=0
[aggregate] aggr.count(n) rows=1 est=-1 gpu=0 cpu=83328 pci=0
[aggregate] aggr.sum(s) rows=1 est=-1 gpu=0 cpu=0 pci=0
`,
	}
)
