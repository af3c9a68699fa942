// Package table provides the relational substrate used throughout the
// library: schemas, row-oriented tables, CSV serialization, and value
// statistics. Every attribute value is carried as a string; numeric
// attributes additionally validate as integers so that interval
// generalization hierarchies can parse them.
package table

import (
	"fmt"
	"slices"
	"strconv"
)

// Kind classifies an attribute's domain.
type Kind int

const (
	// Categorical attributes take values from a finite, explicitly
	// enumerated domain.
	Categorical Kind = iota
	// Numeric attributes take integer values in [Min, Max].
	Numeric
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Categorical:
		return "categorical"
	case Numeric:
		return "numeric"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Attribute describes one column of a table.
type Attribute struct {
	// Name is the column name; it must be unique within a schema.
	Name string
	// Kind is the attribute's domain class.
	Kind Kind
	// Domain enumerates the legal values of a categorical attribute.
	// It is ignored for numeric attributes.
	Domain []string
	// Min and Max bound the legal values of a numeric attribute
	// (inclusive). They are ignored for categorical attributes.
	Min, Max int

	// domain holds Domain as a set, built once by NewSchema, so that
	// Validate costs one lookup however large the domain. It is nil on an
	// attribute NewSchema did not build (a Schema written as a literal),
	// whose Validate walks Domain instead.
	domain map[string]struct{}
}

// Validate reports whether v is a legal value for the attribute.
func (a *Attribute) Validate(v string) error {
	switch a.Kind {
	case Numeric:
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("table: attribute %q: %q is not an integer", a.Name, v)
		}
		if n < a.Min || n > a.Max {
			return fmt.Errorf("table: attribute %q: %d outside [%d, %d]", a.Name, n, a.Min, a.Max)
		}
		return nil
	case Categorical:
		if a.domain != nil {
			if _, ok := a.domain[v]; ok {
				return nil
			}
		} else if slices.Contains(a.Domain, v) {
			return nil
		}
		return fmt.Errorf("table: attribute %q: %q not in domain", a.Name, v)
	default:
		return fmt.Errorf("table: attribute %q: unknown kind %v", a.Name, a.Kind)
	}
}

// Schema is an ordered list of attributes together with the index of the
// single sensitive attribute. All remaining attributes are treated as
// non-sensitive (potential quasi-identifiers).
type Schema struct {
	Attrs []Attribute
	// SensitiveIndex is the index into Attrs of the sensitive attribute.
	SensitiveIndex int
}

// NewSchema builds a schema and validates its internal consistency. The
// schema holds a copy of attrs, with each categorical domain indexed as a
// set for Validate; the domains must not change afterwards.
func NewSchema(attrs []Attribute, sensitive string) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("table: schema needs at least one attribute")
	}
	attrs = slices.Clone(attrs)
	seen := make(map[string]bool, len(attrs))
	si := -1
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("table: attribute %d has empty name", i)
		}
		if seen[a.Name] {
			return nil, fmt.Errorf("table: duplicate attribute %q", a.Name)
		}
		seen[a.Name] = true
		if a.Kind == Categorical && len(a.Domain) == 0 {
			return nil, fmt.Errorf("table: categorical attribute %q has empty domain", a.Name)
		}
		if a.Kind == Categorical {
			set := make(map[string]struct{}, len(a.Domain))
			for _, d := range a.Domain {
				set[d] = struct{}{}
			}
			attrs[i].domain = set
		}
		if a.Kind == Numeric && a.Min > a.Max {
			return nil, fmt.Errorf("table: numeric attribute %q has Min > Max", a.Name)
		}
		if a.Name == sensitive {
			si = i
		}
	}
	if si < 0 {
		return nil, fmt.Errorf("table: sensitive attribute %q not in schema", sensitive)
	}
	return &Schema{Attrs: attrs, SensitiveIndex: si}, nil
}

// Index returns the column index of the named attribute, or -1.
func (s *Schema) Index(name string) int {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Sensitive returns the sensitive attribute.
func (s *Schema) Sensitive() *Attribute { return &s.Attrs[s.SensitiveIndex] }

// QuasiIdentifiers returns the indices of all non-sensitive attributes, in
// schema order.
func (s *Schema) QuasiIdentifiers() []int {
	qi := make([]int, 0, len(s.Attrs)-1)
	for i := range s.Attrs {
		if i != s.SensitiveIndex {
			qi = append(qi, i)
		}
	}
	return qi
}

// Names returns the attribute names in schema order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		names[i] = a.Name
	}
	return names
}
