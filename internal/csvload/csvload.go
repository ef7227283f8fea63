// Package csvload loads CSV files into catalog tables, complementing the
// cmd/tpchgen and cmd/spatialgen exporters: external data can be brought
// into the engine, decomposed with bwdecompose, and queried.
//
// Columns are typed by a Schema: plain integers, fixed-point decimals
// (stored as scaled integers at the declared scale), dates (days since an
// epoch) or dictionary-encoded strings (ordered codes, so prefix
// predicates can be rewritten into ranges like the paper does for Q14).
package csvload

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/bat"
	"repro/internal/fixed"
	"repro/internal/plan"
	"repro/internal/store"
)

// Kind is a column type.
type Kind int

// Column kinds.
const (
	Int Kind = iota
	Decimal
	Date
	Dict
)

// ColumnSpec types one CSV column.
type ColumnSpec struct {
	Name  string
	Kind  Kind
	Scale int64 // Decimal: fixed-point scale (e.g. 100, 100000)
}

// Schema types a CSV file. Columns not listed are ignored.
type Schema struct {
	Table string
	Cols  []ColumnSpec
	// Epoch anchors Date columns (days since Epoch); defaults to
	// 1992-01-01, the TPC-H epoch.
	Epoch time.Time
}

// Result describes a completed load.
type Result struct {
	Table *plan.Table
	Rows  int
	// Dicts maps dictionary column names to their ordered value lists
	// (code -> string), for prefix-to-range rewrites.
	Dicts map[string][]string
}

// Load reads CSV data (with a header row) according to the schema and
// registers the table in the catalog.
func Load(c *plan.Catalog, r io.Reader, schema Schema) (*Result, error) {
	if len(schema.Cols) == 0 {
		return nil, fmt.Errorf("csvload: empty schema")
	}
	epoch := schema.Epoch
	if epoch.IsZero() {
		epoch = time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("csvload: reading header: %w", err)
	}
	colIdx := make([]int, len(schema.Cols))
	for i, spec := range schema.Cols {
		colIdx[i] = -1
		for j, h := range header {
			if h == spec.Name {
				colIdx[i] = j
				break
			}
		}
		if colIdx[i] < 0 {
			return nil, fmt.Errorf("csvload: column %q not in header %v", spec.Name, header)
		}
	}

	vals := make([][]int64, len(schema.Cols))
	// Dictionary columns collect raw strings first; codes are assigned
	// after sorting so that the dictionary is ordered.
	raw := make([][]string, len(schema.Cols))
	rows := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("csvload: row %d: %w", rows+2, err)
		}
		for i, spec := range schema.Cols {
			field := rec[colIdx[i]]
			switch spec.Kind {
			case Int:
				v, err := fixed.Parse(field, 1)
				if err != nil {
					return nil, fmt.Errorf("csvload: %s row %d: %w", spec.Name, rows+2, err)
				}
				vals[i] = append(vals[i], v)
			case Decimal:
				v, err := fixed.Parse(field, spec.Scale)
				if err != nil {
					return nil, fmt.Errorf("csvload: %s row %d: %w", spec.Name, rows+2, err)
				}
				vals[i] = append(vals[i], v)
			case Date:
				t, err := time.Parse("2006-01-02", field)
				if err != nil {
					return nil, fmt.Errorf("csvload: %s row %d: %w", spec.Name, rows+2, err)
				}
				vals[i] = append(vals[i], int64(t.Sub(epoch).Hours()/24))
			case Dict:
				raw[i] = append(raw[i], field)
			default:
				return nil, fmt.Errorf("csvload: unknown kind %d", spec.Kind)
			}
		}
		rows++
	}

	res := &Result{Rows: rows, Dicts: map[string][]string{}}
	tbl := plan.NewTable(schema.Table)
	for i, spec := range schema.Cols {
		if spec.Kind == Dict {
			dict, codes := encodeDict(raw[i])
			res.Dicts[spec.Name] = dict
			vals[i] = codes
		}
		scale := int64(1)
		if spec.Kind == Decimal {
			scale = spec.Scale
		}
		if err := tbl.AddColumnScaled(spec.Name, vals[i], widthFor(spec, vals[i]), scale); err != nil {
			return nil, err
		}
	}
	if err := c.AddTable(tbl); err != nil {
		return nil, err
	}
	res.Table = tbl
	return res, nil
}

// ParseSchema parses the compact schema syntax of the shell's \load
// command into a Schema: comma-separated "name:type" pairs where type is
// int, date, dict, or decimalN (N fractional digits, e.g. decimal2 for
// money, decimal5 for GPS coordinates):
//
//	id:int,price:decimal2,name:dict,shipped:date
func ParseSchema(table, spec string) (Schema, error) {
	schema := Schema{Table: table}
	if strings.TrimSpace(spec) == "" {
		return schema, fmt.Errorf("csvload: empty schema spec")
	}
	for _, field := range strings.Split(spec, ",") {
		name, typ, ok := strings.Cut(strings.TrimSpace(field), ":")
		if !ok || name == "" || typ == "" {
			return schema, fmt.Errorf("csvload: malformed schema field %q (want name:type)", field)
		}
		col := ColumnSpec{Name: name}
		switch {
		case typ == "int":
			col.Kind = Int
		case typ == "date":
			col.Kind = Date
		case typ == "dict":
			col.Kind = Dict
		case strings.HasPrefix(typ, "decimal"):
			// Shares CREATE TABLE's type mapping so the two surfaces
			// cannot drift.
			scale, err := store.ParseTypeScale(typ)
			if err != nil {
				return schema, fmt.Errorf("csvload: %w", err)
			}
			col.Kind = Decimal
			col.Scale = scale
		default:
			return schema, fmt.Errorf("csvload: unknown column type %q (int, decimalN, date, dict)", typ)
		}
		schema.Cols = append(schema.Cols, col)
	}
	return schema, nil
}

// encodeDict builds an ordered dictionary over the strings and returns it
// with the per-row codes.
func encodeDict(raw []string) (dict []string, codes []int64) {
	seen := map[string]bool{}
	for _, s := range raw {
		if !seen[s] {
			seen[s] = true
			dict = append(dict, s)
		}
	}
	sort.Strings(dict)
	code := make(map[string]int64, len(dict))
	for i, s := range dict {
		code[s] = int64(i)
	}
	codes = make([]int64, len(raw))
	for i, s := range raw {
		codes[i] = code[s]
	}
	return dict, codes
}

// widthFor picks the physical width the cost model charges for a column.
func widthFor(spec ColumnSpec, vals []int64) int {
	if spec.Kind == Dict {
		return bat.Width8
	}
	var lo, hi int64
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	switch {
	case lo >= -128 && hi < 128:
		return bat.Width8
	case lo >= -(1<<15) && hi < 1<<15:
		return bat.Width16
	case lo >= -(1<<31) && hi < 1<<31:
		return bat.Width32
	default:
		return bat.Width64
	}
}
