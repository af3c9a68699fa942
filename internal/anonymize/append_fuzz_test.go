package anonymize

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"ckprivacy/internal/core"
	"ckprivacy/internal/hierarchy"
	"ckprivacy/internal/oracle"
	"ckprivacy/internal/table"
)

// fuzzBytes hands out the fuzz input one byte at a time, zeros once it
// runs dry, so every input decodes to some case.
type fuzzBytes struct {
	data []byte
	pos  int
}

func (b *fuzzBytes) next() int {
	if b.pos >= len(b.data) {
		return 0
	}
	v := b.data[b.pos]
	b.pos++
	return int(v)
}

// appendCase is a decoded FuzzAppendMatchesRebuild input: a table in
// randomProblemCase's shape, its first cut rows as the base, and the
// batches appended after it, some of them hostile.
type appendCase struct {
	tab     *table.Table
	hs      hierarchy.Set
	qi      []string
	cut     int
	batches [][]table.Row
	hostile []bool
}

// decodeAppendCase reads 2–3 quasi-identifiers, each numeric (0–99 under
// an interval hierarchy) or categorical (a suppression hierarchy covering
// every schema value but the last), 2–61 rows over them and a sensitive
// attribute of four values, a cut point, and 1–3 batches splitting the
// rows after the cut. A batch is hostile when one of its rows carries a
// schema-illegal value or, on a categorical attribute, the schema-legal
// value the hierarchy does not cover.
func decodeAppendCase(data []byte) appendCase {
	b := &fuzzBytes{data: data}
	widths := [][]int{{1, 2, 4, 0}, {1, 5, 0}, {1, 10, 0}}
	nQI := 2 + b.next()%2
	var attrs []table.Attribute
	c := appendCase{hs: hierarchy.Set{}}
	for i := 0; i < nQI; i++ {
		name := fmt.Sprintf("q%d", i)
		c.qi = append(c.qi, name)
		shape := b.next()
		if shape%2 == 0 {
			attrs = append(attrs, table.Attribute{Name: name, Kind: table.Numeric, Min: 0, Max: 99})
			c.hs[name] = hierarchy.MustInterval(name, widths[(shape/2)%len(widths)])
			continue
		}
		domain := make([]string, 3+(shape/2)%4)
		for j := range domain {
			domain[j] = fmt.Sprintf("c%d", j)
		}
		attrs = append(attrs, table.Attribute{Name: name, Kind: table.Categorical, Domain: domain})
		c.hs[name] = hierarchy.NewSuppression(name, domain[:len(domain)-1])
	}
	attrs = append(attrs, table.Attribute{Name: "sens", Kind: table.Categorical, Domain: []string{"s0", "s1", "s2", "s3"}})
	s, err := table.NewSchema(attrs, "sens")
	if err != nil {
		panic(err)
	}
	c.tab = table.New(s)
	rows := 2 + b.next()%60
	for r := 0; r < rows; r++ {
		row := make(table.Row, len(attrs))
		for col, a := range attrs {
			if a.Kind == table.Numeric {
				row[col] = strconv.Itoa(b.next() % 100)
				continue
			}
			covered := len(a.Domain)
			if col < nQI {
				covered-- // the last value is for hostile batches only
			}
			row[col] = a.Domain[b.next()%covered]
		}
		c.tab.MustAppend(row)
	}
	c.cut = 1 + b.next()%(rows-1)
	rest := c.tab.Rows[c.cut:]
	for n := 1 + b.next()%3; n > 0 && len(rest) > 0; n-- {
		size := len(rest)
		if n > 1 {
			size = 1 + b.next()%len(rest)
		}
		batch := append([]table.Row(nil), rest[:size]...)
		rest = rest[size:]
		flag := b.next()
		hostile := flag%4 == 0
		if hostile {
			victim := append(table.Row(nil), batch[(flag/4)%len(batch)]...)
			col := (flag / 16) % nQI
			switch a := attrs[col]; {
			case a.Kind == table.Numeric:
				victim[col] = "100"
			case flag&128 != 0:
				victim[col] = "bogus"
			default:
				victim[col] = a.Domain[len(a.Domain)-1]
			}
			batch[(flag/4)%len(batch)] = victim
		}
		c.batches = append(c.batches, batch)
		c.hostile = append(c.hostile, hostile)
	}
	return c
}

// FuzzAppendMatchesRebuild feeds random batches, schema-legal and hostile,
// through Problem.Append on a problem whose whole lattice and engine are
// warm. After each accepted batch every cached node must equal
// oracle.Bucketize on the grown table, and MaxDisclosure at k <= 3 through
// the problem's warm engine must be bit-identical to a fresh engine's (the
// histogram-keyed memo needs no invalidation). A hostile batch must be
// rejected and leave the version, the row count and every cached node
// unchanged.
func FuzzAppendMatchesRebuild(f *testing.F) {
	f.Add([]byte{0, 1, 2, 20, 5, 1, 0, 7, 2, 3, 9, 4, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{1, 3, 0, 5, 40, 17, 2, 1, 0, 3, 3, 1, 2, 0, 8, 4, 2, 6, 1, 9, 5, 200, 11, 3, 1, 6, 2, 0, 7})
	f.Add([]byte{0, 7, 9, 30, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 10, 2, 5, 4, 1, 16, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeAppendCase(data)
		grown := table.New(c.tab.Schema)
		for _, r := range c.tab.Rows[:c.cut] {
			grown.MustAppend(r)
		}
		p, err := NewProblem(grown.Clone(), c.hs, c.qi)
		if err != nil {
			t.Fatal(err)
		}
		nodes := p.Space().All()
		for _, node := range nodes {
			bz, err := p.Bucketize(node)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Engine().MaxDisclosure(bz, 3); err != nil {
				t.Fatal(err)
			}
		}
		for i, batch := range c.batches {
			version, rows, entries := p.Version(), p.Rows(), p.CacheStats().Entries
			_, err := p.Append(batch)
			switch {
			case c.hostile[i] && err == nil:
				t.Fatalf("batch %d: hostile batch accepted", i)
			case c.hostile[i]:
				if p.Version() != version || p.Rows() != rows || p.CacheStats().Entries != entries {
					t.Fatalf("batch %d: rejected batch moved version %d→%d, rows %d→%d, cached nodes %d→%d",
						i, version, p.Version(), rows, p.Rows(), entries, p.CacheStats().Entries)
				}
			case err != nil:
				t.Fatalf("batch %d: %v", i, err)
			default:
				for _, r := range batch {
					grown.MustAppend(r)
				}
				if p.Version() != version+1 || p.Rows() != grown.Len() {
					t.Fatalf("batch %d: version %d rows %d, want %d and %d", i, p.Version(), p.Rows(), version+1, grown.Len())
				}
			}
			snap, fresh := p.Snapshot(), core.NewEngine()
			for _, node := range nodes {
				want, err := oracle.Bucketize(grown, c.hs, oracleLevels(grown.Schema, c.hs, c.qi, node))
				if err != nil {
					t.Fatal(err)
				}
				got, err := snap.Bucketize(node)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("batch %d node %v", i, node)
				oracle.RequireIdentical(t, want, got, label)
				for k := 0; k <= 3; k++ {
					wd, err := fresh.MaxDisclosure(want, k)
					if err != nil {
						t.Fatal(err)
					}
					gd, err := p.Engine().MaxDisclosure(got, k)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(gd) != math.Float64bits(wd) {
						t.Fatalf("%s k=%d: warm engine %v, fresh engine %v", label, k, gd, wd)
					}
				}
			}
		}
	})
}
