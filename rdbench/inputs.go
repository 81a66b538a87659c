package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/big"
	"strings"

	"rdfault/internal/circuit"
	"rdfault/internal/synth"
)

// netlist is one job input: .bench text plus the benchmark's own count
// of its logical paths.
type netlist struct {
	name  string
	text  string
	paths *big.Int
}

// subSeed derives a deterministic seed for one generator decision from
// the run seed and a path of indices (splitmix64 finalizer per step).
func subSeed(seed int64, path ...int) int64 {
	x := uint64(seed)
	for _, p := range path {
		x += 0x9e3779b97f4a7c15 * uint64(p+1)
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 1)
}

// benchText renders c as .bench text.
func benchText(c *circuit.Circuit) (string, error) {
	var b strings.Builder
	if err := circuit.WriteBench(&b, c); err != nil {
		return "", err
	}
	return b.String(), nil
}

// relabeled returns a relabeled copy of c as a job input.
func relabeled(c *circuit.Circuit, name string, seed int64) (netlist, error) {
	r, _, err := synth.Relabel(c, seed)
	if err != nil {
		return netlist{}, err
	}
	return newNetlist(name, r)
}

// newNetlist renders c and counts its paths from the text.
func newNetlist(name string, c *circuit.Circuit) (netlist, error) {
	text, err := benchText(c)
	if err != nil {
		return netlist{}, err
	}
	paths, err := countPaths(text)
	if err != nil {
		return netlist{}, fmt.Errorf("%s: %w", name, err)
	}
	return netlist{name: name, text: text, paths: paths}, nil
}

// countPaths is the benchmark's own |LP(C)|: it reads the .bench text
// itself, counts input-to-output paths by dynamic programming over the
// signal graph (one path per fanin pin, so a signal feeding two pins of
// a gate starts two paths), and doubles the sum for the rising and
// falling transition. It shares no code with the program.
func countPaths(text string) (*big.Int, error) {
	fanin := map[string][]string{}
	var inputs, outputs []string
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		lp, rp := strings.IndexByte(line, '('), strings.LastIndexByte(line, ')')
		if lp < 0 || rp < lp {
			return nil, fmt.Errorf("unreadable line %q", line)
		}
		args := strings.Split(line[lp+1:rp], ",")
		for i := range args {
			args[i] = strings.TrimSpace(args[i])
		}
		head := strings.TrimSpace(line[:lp])
		switch {
		case strings.EqualFold(head, "INPUT"):
			inputs = append(inputs, args[0])
		case strings.EqualFold(head, "OUTPUT"):
			outputs = append(outputs, args[0])
		default:
			eq := strings.IndexByte(head, '=')
			if eq < 0 {
				return nil, fmt.Errorf("unreadable line %q", line)
			}
			fanin[strings.TrimSpace(head[:eq])] = args
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	count := map[string]*big.Int{}
	for _, in := range inputs {
		count[in] = big.NewInt(1)
	}
	var visit func(sig string, depth int) (*big.Int, error)
	visit = func(sig string, depth int) (*big.Int, error) {
		if n, ok := count[sig]; ok {
			return n, nil
		}
		args, ok := fanin[sig]
		if !ok || depth > len(fanin) {
			return nil, fmt.Errorf("signal %q is undriven or on a cycle", sig)
		}
		n := new(big.Int)
		for _, a := range args {
			m, err := visit(a, depth+1)
			if err != nil {
				return nil, err
			}
			n.Add(n, m)
		}
		count[sig] = n
		return n, nil
	}
	total := new(big.Int)
	for _, o := range outputs {
		n, err := visit(o, 0)
		if err != nil {
			return nil, err
		}
		total.Add(total, n)
	}
	return total.Lsh(total, 1), nil
}

// digester fingerprints a job list so two runs can show they used the
// same inputs.
type digester struct {
	h    hash.Hash
	jobs int
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) add(n netlist) {
	fmt.Fprintf(d.h, "%s\n%d\n%s", n.name, len(n.text), n.text)
	d.jobs++
}

func (d *digester) String() string {
	return fmt.Sprintf("jobs=%d digest=%s", d.jobs, hex.EncodeToString(d.h.Sum(nil))[:16])
}

// checkCounts verifies an answer's counters against the benchmark's own
// path count and against each other: RD = Total - Selected and
// 0 <= Selected <= Total.
func checkCounts(total, rd *big.Int, selected int64, want *big.Int) error {
	if total == nil || rd == nil {
		return fmt.Errorf("answer has no total or RD count")
	}
	if total.Cmp(want) != 0 {
		return fmt.Errorf("|LP(C)| = %s, own count %s", total, want)
	}
	sel := big.NewInt(selected)
	if selected < 0 || sel.Cmp(total) > 0 {
		return fmt.Errorf("selected %d outside [0, %s]", selected, total)
	}
	if new(big.Int).Sub(total, sel).Cmp(rd) != 0 {
		return fmt.Errorf("RD %s != total %s - selected %d", rd, total, selected)
	}
	return nil
}

// parseInt reads a decimal counter from an answer.
func parseInt(s string) *big.Int {
	n, ok := new(big.Int).SetString(s, 10)
	if !ok {
		return nil
	}
	return n
}
