package csvload

import (
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/plan"
	"repro/internal/sql"
)

const sample = `id,price,kind,shipped
1,12.50,PROMO TIN,1992-01-01
2,0.99,STANDARD BRASS,1992-01-03
3,100.00,PROMO STEEL,1993-06-15
4,55.25,ECONOMY TIN,1992-01-01
`

func load(t *testing.T) (*plan.Catalog, *Result) {
	t.Helper()
	c := plan.NewCatalog(device.PaperSystem())
	res, err := Load(c, strings.NewReader(sample), Schema{
		Table: "items",
		Cols: []ColumnSpec{
			{Name: "id", Kind: Int},
			{Name: "price", Kind: Decimal, Scale: 100},
			{Name: "kind", Kind: Dict},
			{Name: "shipped", Kind: Date},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, res
}

func TestLoadTypes(t *testing.T) {
	c, res := load(t)
	if res.Rows != 4 {
		t.Fatalf("Rows = %d, want 4", res.Rows)
	}
	tbl, err := c.Table("items")
	if err != nil {
		t.Fatal(err)
	}
	price, _ := tbl.Snapshot().BaseValues("price", 0, tbl.Len(), nil)
	if price[0] != 1250 || price[1] != 99 {
		t.Errorf("decimal parsing: %d, %d", price[0], price[1])
	}
	if s, _ := tbl.ColumnScale("price"); s != 100 {
		t.Errorf("price scale = %d, want 100", s)
	}
	shipped, _ := tbl.Snapshot().BaseValues("shipped", 0, tbl.Len(), nil)
	if shipped[0] != 0 || shipped[1] != 2 {
		t.Errorf("date parsing: %d, %d (days since epoch)", shipped[0], shipped[1])
	}
	if shipped[2] <= 365 {
		t.Errorf("1993 date should be beyond one year: %d", shipped[2])
	}
}

func TestDictionaryOrderedAndPrefix(t *testing.T) {
	c, res := load(t)
	dict := res.Dicts["kind"]
	if len(dict) != 4 {
		t.Fatalf("dictionary size %d, want 4", len(dict))
	}
	for i := 1; i < len(dict); i++ {
		if dict[i-1] >= dict[i] {
			t.Fatal("dictionary not sorted")
		}
	}
	// Sorted, the entries of one prefix are one code range.
	lo, hi := int64(-1), int64(-1)
	for i, e := range dict {
		if !strings.HasPrefix(e, "PROMO") {
			continue
		}
		if lo < 0 {
			lo = int64(i)
		}
		hi = int64(i)
	}
	if lo < 0 || hi-lo+1 != 2 {
		t.Fatalf("PROMO range [%d,%d], want 2 entries", lo, hi)
	}

	// The loaded dictionary column is queryable through the full stack.
	tbl, _ := c.Table("items")
	kind, _ := tbl.Snapshot().BaseValues("kind", 0, tbl.Len(), nil)
	count := 0
	for _, v := range kind {
		if v >= lo && v <= hi {
			count++
		}
	}
	if count != 2 {
		t.Errorf("PROMO rows = %d, want 2", count)
	}
}

func TestLoadedTableQueryable(t *testing.T) {
	c, _ := load(t)
	if _, err := sql.Run(c, "select bwdecompose(price, 24) from items", plan.ExecOpts{}); err != nil {
		t.Fatal(err)
	}
	res, err := sql.Run(c, "select count(*) as n, sum(price) as total from items where price between 1.00 and 60.00", plan.ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Vals[0] != 2 { // 12.50 and 55.25
		t.Errorf("count = %d, want 2", res.Rows[0].Vals[0])
	}
	if res.Rows[0].Vals[1] != 1250+5525 {
		t.Errorf("sum = %d, want %d", res.Rows[0].Vals[1], 1250+5525)
	}
}

func TestLoadErrors(t *testing.T) {
	c := plan.NewCatalog(device.PaperSystem())
	if _, err := Load(c, strings.NewReader(sample), Schema{Table: "x"}); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := Load(c, strings.NewReader(sample), Schema{
		Table: "x", Cols: []ColumnSpec{{Name: "missing", Kind: Int}},
	}); err == nil {
		t.Error("missing column accepted")
	}
	if _, err := Load(c, strings.NewReader("id\nabc\n"), Schema{
		Table: "x", Cols: []ColumnSpec{{Name: "id", Kind: Int}},
	}); err == nil {
		t.Error("bad integer accepted")
	}
	if _, err := Load(c, strings.NewReader("d\n2020-13-45\n"), Schema{
		Table: "x", Cols: []ColumnSpec{{Name: "d", Kind: Date}},
	}); err == nil {
		t.Error("bad date accepted")
	}
}

func TestWidthSelection(t *testing.T) {
	c := plan.NewCatalog(device.PaperSystem())
	res, err := Load(c, strings.NewReader("small,big\n1,5000000000\n2,6000000000\n"), Schema{
		Table: "w",
		Cols:  []ColumnSpec{{Name: "small", Kind: Int}, {Name: "big", Kind: Int}},
	})
	if err != nil {
		t.Fatal(err)
	}
	small, _ := res.Table.Column("small")
	big, _ := res.Table.Column("big")
	if small.Dec.Width != 1 {
		t.Errorf("small width = %d, want 1", small.Dec.Width)
	}
	if big.Dec.Width != 8 {
		t.Errorf("big width = %d, want 8", big.Dec.Width)
	}
}
