package bench

import (
	"fmt"
	"strings"
)

// cell is one table cell: a measured value or "n/a" where the paper
// marks the method inapplicable to the operation's result type.
type cell struct {
	Value     float64
	Unit      string
	NotApplic bool
}

// String formats the cell.
func (c cell) String() string {
	if c.NotApplic {
		return "n/a"
	}
	switch c.Unit {
	case "ms":
		return fmt.Sprintf("%.4f", c.Value)
	case "bytes":
		return fmt.Sprintf("%.0f", c.Value)
	default:
		return fmt.Sprintf("%.4f", c.Value)
	}
}

// row is one table row: a method and its per-operation cells.
type row struct {
	Name  string
	Cells []cell
}

// Table is a rendered experiment table.
type Table struct {
	ID      string // e.g. "Table 6"
	Title   string
	Unit    string
	Columns []string
	Rows    []row
}

// Format renders the table as aligned text, in the layout of the
// paper's tables: methods as rows, operations as columns.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s. %s (%s)\n", t.ID, t.Title, t.Unit)

	widths := make([]int, len(t.Columns)+1)
	widths[0] = len("method")
	for _, r := range t.Rows {
		if len(r.Name) > widths[0] {
			widths[0] = len(r.Name)
		}
	}
	for j, col := range t.Columns {
		widths[j+1] = len(col)
		for _, r := range t.Rows {
			if s := r.Cells[j].String(); len(s) > widths[j+1] {
				widths[j+1] = len(s)
			}
		}
	}

	pad := func(s string, w int) string {
		if len(s) >= w {
			return s
		}
		return s + strings.Repeat(" ", w-len(s))
	}

	b.WriteString(pad("", widths[0]))
	for j, col := range t.Columns {
		b.WriteString("  ")
		b.WriteString(pad(col, widths[j+1]))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(pad(r.Name, widths[0]))
		for j := range t.Columns {
			b.WriteString("  ")
			b.WriteString(pad(r.Cells[j].String(), widths[j+1]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as comma-separated values for plotting.
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "table,%s,%s\n", csvQuote(t.ID), csvQuote(t.Title))
	b.WriteString("method")
	for _, col := range t.Columns {
		b.WriteByte(',')
		b.WriteString(csvQuote(col))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(csvQuote(r.Name))
		for _, c := range r.Cells {
			b.WriteByte(',')
			if c.NotApplic {
				b.WriteString("n/a")
			} else {
				b.WriteString(c.String())
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// csvQuote quotes a field when needed.
func csvQuote(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// CSVFigure renders figure series as CSV rows:
// method,metric,ratio,value.
func CSVFigure(series []series) string {
	var b strings.Builder
	b.WriteString("method,metric,hit_ratio,value\n")
	for _, s := range series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%s,throughput_rps,%.2f,%.1f\n", csvQuote(s.Store), p.HitRatio, p.Throughput)
			fmt.Fprintf(&b, "%s,avg_latency_ms,%.2f,%.4f\n", csvQuote(s.Store), p.HitRatio,
				float64(p.AvgLatency.Microseconds())/1000.0)
		}
	}
	return b.String()
}
