package bench

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// promScrape is a parsed /metrics body. The harness reads only the
// families listed in cmd/impeccable-bench/README.md; the reader accepts
// the whole 0.0.4 text format the service's obs package writes
// (comments, labels with escaped values, +Inf/NaN).
type promScrape []promSample

// parseProm reads a text exposition.
func parseProm(r io.Reader) (promScrape, error) {
	var out promScrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: reading exposition: %w", err)
	}
	return out, nil
}

func parsePromLine(line string) (promSample, error) {
	s := promSample{}
	rest := line
	if i := strings.IndexAny(line, "{ "); i < 0 {
		return s, fmt.Errorf("bench: malformed metric line %q", line)
	} else {
		s.Name, rest = line[:i], line[i:]
	}
	if rest[0] == '{' {
		end, labels, err := parsePromLabels(rest)
		if err != nil {
			return s, fmt.Errorf("bench: %w in %q", err, line)
		}
		s.Labels, rest = labels, rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("bench: metric line %q has no value", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bench: metric line %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parsePromLabels parses `{k="v",...}` at the start of s and returns the
// index just past the closing brace.
func parsePromLabels(s string) (int, map[string]string, error) {
	labels := map[string]string{}
	i := 1
	for {
		if i >= len(s) {
			return 0, nil, fmt.Errorf("unterminated label set")
		}
		if s[i] == '}' {
			return i + 1, labels, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 || i+eq+1 >= len(s) || s[i+eq+1] != '"' {
			return 0, nil, fmt.Errorf("malformed label")
		}
		key := s[i : i+eq]
		i += eq + 2
		var val strings.Builder
		for ; ; i++ {
			if i >= len(s) {
				return 0, nil, fmt.Errorf("unterminated label value")
			}
			if s[i] == '"' {
				break
			}
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i])
				}
				continue
			}
			val.WriteByte(s[i])
		}
		labels[key] = val.String()
		i++
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

// sum adds every sample of a family whose labels include all of match
// (given as key, value pairs).
func (p promScrape) sum(name string, match ...string) float64 {
	var total float64
	for _, s := range p {
		if s.Name != name {
			continue
		}
		ok := true
		for i := 0; i+1 < len(match); i += 2 {
			if s.Labels[match[i]] != match[i+1] {
				ok = false
			}
		}
		if ok {
			total += s.Value
		}
	}
	return total
}
