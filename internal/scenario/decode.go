package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"unicode/utf8"

	"earlybird/internal/cliopts"
	"earlybird/internal/dlb"
)

// Parse reads a scenario document — JSON when the first significant
// byte is '{', the YAML subset otherwise — and decodes it strictly into
// a validated Spec. Unknown keys are errors: a typoed axis name must not
// silently shrink the cross-product. The document must be UTF-8: the
// JSON wire form would otherwise carry a replacement character where
// the file had an invalid byte, and name another source.
func Parse(data []byte) (*Spec, error) {
	if !utf8.Valid(data) {
		return nil, fmt.Errorf("scenario: document is not valid UTF-8")
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	var (
		root any
		err  error
	)
	if len(trimmed) > 0 && trimmed[0] == '{' {
		dec := json.NewDecoder(bytes.NewReader(trimmed))
		var m map[string]any
		if err = dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("scenario: bad JSON: %w", err)
		}
		root = m
	} else {
		root, err = parseYAML(data)
		if err != nil {
			return nil, err
		}
	}
	m, ok := root.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("scenario: document must be a mapping at the top level")
	}
	return specFromMap(m)
}

// specKeys is the complete key set a scenario document may use.
var specKeys = map[string]bool{
	"name": true, "description": true, "sources": true,
	"geometries": true, "noise": true, "fabrics": true, "dlb": true,
	"bin_timeouts_ms": true, "alpha": true, "laggard_ms": true, "part_bytes": true,
}

// specFromMap decodes the parsed document into a Spec and validates it.
func specFromMap(m map[string]any) (*Spec, error) {
	for k := range m {
		if !specKeys[k] {
			keys := make([]string, 0, len(specKeys))
			for a := range specKeys {
				keys = append(keys, a)
			}
			sort.Strings(keys)
			return nil, fmt.Errorf("scenario: unknown key %q (want one of: %s)", k, keysJoin(keys))
		}
	}
	var s Spec
	var err error
	if s.Name, err = optString(m, "name"); err != nil {
		return nil, err
	}
	if s.Description, err = optString(m, "description"); err != nil {
		return nil, err
	}

	srcs, err := list(m, "sources")
	if err != nil {
		return nil, err
	}
	for i, raw := range srcs {
		src, err := sourceFromValue(i, raw)
		if err != nil {
			return nil, err
		}
		s.Sources = append(s.Sources, src)
	}

	if err := eachScalar(m, "geometries", func(text string) error {
		g, err := cliopts.ParseGeometry(text)
		if err != nil {
			return fmt.Errorf("scenario: geometries: %w", err)
		}
		s.Geometries = append(s.Geometries, g)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := eachScalar(m, "noise", func(text string) error {
		n, err := ParseNoise(text)
		if err != nil {
			return err
		}
		s.Noise = append(s.Noise, n)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := eachScalar(m, "fabrics", func(text string) error {
		f, err := ParseFabric(text)
		if err != nil {
			return err
		}
		s.Fabrics = append(s.Fabrics, f)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := eachScalar(m, "dlb", func(text string) error {
		d, err := dlb.Parse(text)
		if err != nil {
			return fmt.Errorf("scenario: dlb: %w", err)
		}
		s.DLB = append(s.DLB, d)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := eachScalar(m, "bin_timeouts_ms", func(text string) error {
		ms, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return fmt.Errorf("scenario: bin_timeouts_ms: bad number %q", text)
		}
		s.BinTimeoutsSec = append(s.BinTimeoutsSec, ms*1e-3)
		return nil
	}); err != nil {
		return nil, err
	}

	if s.Alpha, err = optFloat(m, "alpha"); err != nil {
		return nil, err
	}
	laggardMS, err := optFloat(m, "laggard_ms")
	if err != nil {
		return nil, err
	}
	s.LaggardThresholdSec = laggardMS * 1e-3
	partBytes, err := optFloat(m, "part_bytes")
	if err != nil {
		return nil, err
	}
	s.BytesPerPartition = int(partBytes)
	if float64(s.BytesPerPartition) != partBytes {
		return nil, fmt.Errorf("scenario: part_bytes must be an integer, got %g", partBytes)
	}

	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// sourceFromValue decodes one sources[] item: a {app:|trace:|csv:}
// mapping, or a bare string shorthand meaning an app name.
func sourceFromValue(i int, raw any) (Source, error) {
	switch v := raw.(type) {
	case string:
		return Source{App: v}, nil
	case map[string]any:
		var src Source
		for k := range v {
			switch k {
			case "app", "trace", "csv":
			default:
				return Source{}, fmt.Errorf("scenario: sources[%d]: unknown key %q (want app, trace or csv)", i, k)
			}
		}
		var err error
		if src.App, err = optString(v, "app"); err != nil {
			return Source{}, err
		}
		if src.Trace, err = optString(v, "trace"); err != nil {
			return Source{}, err
		}
		if src.CSV, err = optString(v, "csv"); err != nil {
			return Source{}, err
		}
		return src, nil
	default:
		return Source{}, fmt.Errorf("scenario: sources[%d]: expected an app name or a mapping, got %T", i, raw)
	}
}

// list fetches an optional list-valued key.
func list(m map[string]any, key string) ([]any, error) {
	v, ok := m[key]
	if !ok || v == nil {
		return nil, nil
	}
	l, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("scenario: %s must be a list, got %T", key, v)
	}
	return l, nil
}

// eachScalar iterates an optional list of scalars as canonicalised
// strings (YAML scalars arrive as strings, JSON numbers as float64).
func eachScalar(m map[string]any, key string, fn func(string) error) error {
	l, err := list(m, key)
	if err != nil {
		return err
	}
	for i, raw := range l {
		text, err := scalarString(raw)
		if err != nil {
			return fmt.Errorf("scenario: %s[%d]: %w", key, i, err)
		}
		if err := fn(text); err != nil {
			return err
		}
	}
	return nil
}

// scalarString renders one scalar value as text.
func scalarString(v any) (string, error) {
	switch x := v.(type) {
	case string:
		return x, nil
	case float64:
		return fnum(x), nil
	case bool:
		return strconv.FormatBool(x), nil
	default:
		return "", fmt.Errorf("expected a scalar, got %T", v)
	}
}

// optString fetches an optional string-valued key.
func optString(m map[string]any, key string) (string, error) {
	v, ok := m[key]
	if !ok || v == nil {
		return "", nil
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("scenario: %s must be a string, got %T", key, v)
	}
	return s, nil
}

// optFloat fetches an optional numeric key (string in YAML, float64 in
// JSON).
func optFloat(m map[string]any, key string) (float64, error) {
	v, ok := m[key]
	if !ok || v == nil {
		return 0, nil
	}
	switch x := v.(type) {
	case float64:
		return x, nil
	case string:
		f, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, fmt.Errorf("scenario: %s: bad number %q", key, x)
		}
		return f, nil
	default:
		return 0, fmt.Errorf("scenario: %s must be a number, got %T", key, v)
	}
}

// keysJoin renders a sorted key list for error messages.
func keysJoin(keys []string) string {
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += ", "
		}
		out += k
	}
	return out
}
