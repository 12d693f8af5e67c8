package parasitics

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// SPEF is a parsed parasitics file: one RC description per net.
type SPEF struct {
	Design string
	Nets   []*RCTree
	byName map[string]*RCTree
}

// Net returns the parasitics of the named net, or nil.
func (s *SPEF) Net(name string) *RCTree {
	if s.byName == nil {
		s.byName = make(map[string]*RCTree, len(s.Nets))
		for _, n := range s.Nets {
			s.byName[n.NetName] = n
		}
	}
	return s.byName[name]
}

// WriteSPEF renders the trees in a SPEF-subset format (units: ns, pF, kΩ).
func WriteSPEF(w io.Writer, design string, nets []*RCTree) error {
	bw := bufio.NewWriter(w)
	p := func(format string, args ...any) { fmt.Fprintf(bw, format, args...) }
	p("*SPEF \"IEEE 1481-1998\"\n")
	p("*DESIGN \"%s\"\n", design)
	p("*T_UNIT 1 NS\n*C_UNIT 1 PF\n*R_UNIT 1 KOHM\n\n")
	for _, t := range nets {
		t.EnsureNodeNames()
		p("*D_NET %s %s\n", spefName(t.NetName), ftoa(t.TotalCap()))
		p("*CAP\n")
		for i, c := range t.CapPF {
			if c == 0 {
				continue
			}
			p("%d %s %s\n", i+1, spefName(t.NodeName[i]), ftoa(c))
		}
		p("*RES\n")
		idx := 1
		for i := 1; i < len(t.Parent); i++ {
			p("%d %s %s %s\n", idx, spefName(t.NodeName[t.Parent[i]]), spefName(t.NodeName[i]), ftoa(t.RkOhm[i]))
			idx++
		}
		p("*END\n\n")
	}
	return bw.Flush()
}

func spefName(s string) string {
	// SPEF identifiers escape special characters; we only need ':' kept
	// readable and spaces forbidden, so replace spaces defensively.
	return strings.ReplaceAll(s, " ", "_")
}

func ftoa(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// ParseSPEF reads a file written by WriteSPEF back into RC trees.
func ParseSPEF(r io.Reader) (*SPEF, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	out := &SPEF{}
	var cur *rawNet
	lineNo := 0
	section := ""
	flush := func() error {
		if cur == nil {
			return nil
		}
		t, err := cur.build()
		if err != nil {
			return err
		}
		out.Nets = append(out.Nets, t)
		cur = nil
		return nil
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "*SPEF") || strings.HasPrefix(line, "*T_UNIT") ||
			strings.HasPrefix(line, "*C_UNIT") || strings.HasPrefix(line, "*R_UNIT"):
			// header; units are fixed in this subset
		case strings.HasPrefix(line, "*DESIGN"):
			out.Design = strings.Trim(strings.TrimPrefix(line, "*DESIGN"), " \"")
		case strings.HasPrefix(line, "*D_NET"):
			if err := flush(); err != nil {
				return nil, err
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("spef: line %d: malformed *D_NET", lineNo)
			}
			cur = &rawNet{name: fields[1]}
			section = ""
		case line == "*CAP" || line == "*RES" || line == "*CONN":
			section = line
		case line == "*END":
			if err := flush(); err != nil {
				return nil, err
			}
			section = ""
		default:
			if cur == nil {
				return nil, fmt.Errorf("spef: line %d: data outside *D_NET", lineNo)
			}
			switch section {
			case "*CAP":
				if len(fields) != 3 {
					return nil, fmt.Errorf("spef: line %d: malformed cap entry", lineNo)
				}
				v, err := strconv.ParseFloat(fields[2], 64)
				if err != nil {
					return nil, fmt.Errorf("spef: line %d: %v", lineNo, err)
				}
				cur.caps = append(cur.caps, rawCap{fields[1], v})
			case "*RES":
				if len(fields) != 4 {
					return nil, fmt.Errorf("spef: line %d: malformed res entry", lineNo)
				}
				v, err := strconv.ParseFloat(fields[3], 64)
				if err != nil {
					return nil, fmt.Errorf("spef: line %d: %v", lineNo, err)
				}
				cur.ress = append(cur.ress, rawRes{fields[1], fields[2], v})
			default:
				return nil, fmt.Errorf("spef: line %d: unexpected %q", lineNo, line)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return out, nil
}

type rawCap struct {
	node string
	pf   float64
}

type rawRes struct {
	a, b string
	kohm float64
}

type rawNet struct {
	name string
	caps []rawCap
	ress []rawRes
}

// build reconstructs an RCTree from flat cap/res lists. The tree is rooted
// at "<net>:0"; resistor connectivity defines parent/child.
func (rn *rawNet) build() (*RCTree, error) {
	root := rn.name + ":0"
	adj := make(map[string][]rawRes)
	for _, r := range rn.ress {
		adj[r.a] = append(adj[r.a], r)
		adj[r.b] = append(adj[r.b], r)
	}
	capOf := make(map[string]float64, len(rn.caps))
	for _, c := range rn.caps {
		capOf[c.node] += c.pf
	}
	t := &RCTree{NetName: rn.name}
	index := map[string]int{}
	addNode := func(name string, parent int, r float64) {
		index[name] = len(t.NodeName)
		t.NodeName = append(t.NodeName, name)
		t.Parent = append(t.Parent, parent)
		t.RkOhm = append(t.RkOhm, r)
		t.CapPF = append(t.CapPF, capOf[name])
	}
	addNode(root, -1, 0)
	// BFS over resistor graph.
	queue := []string{root}
	visited := map[string]bool{root: true}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		edges := adj[v]
		sort.Slice(edges, func(i, j int) bool {
			return otherEnd(edges[i], v) < otherEnd(edges[j], v)
		})
		for _, e := range edges {
			w := otherEnd(e, v)
			if visited[w] {
				continue
			}
			visited[w] = true
			addNode(w, index[v], e.kohm)
			queue = append(queue, w)
		}
	}
	// Name the first unreachable node in file order (caps, then
	// resistor ends), so the error is the same on every run.
	var named []string
	for _, c := range rn.caps {
		named = append(named, c.node)
	}
	for _, r := range rn.ress {
		named = append(named, r.a, r.b)
	}
	for _, n := range named {
		if !visited[n] {
			return nil, fmt.Errorf("spef: net %s: node %s not connected to root", rn.name, n)
		}
	}
	return t, nil
}

func otherEnd(r rawRes, v string) string {
	if r.a == v {
		return r.b
	}
	return r.a
}
