package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"lazycm/internal/interp"
	"lazycm/internal/ir"
	"lazycm/internal/lcmclient"
	"lazycm/internal/props"
	"lazycm/internal/randprog"
	"lazycm/internal/textir"
)

// argSets is how many seeded argument vectors each answer is
// interpreted on.
const argSets = 3

// fnAnswer is one function of one answer.
type fnAnswer struct {
	fn       int    // index into the stream's function table
	text     string // the function as the server printed it
	clean    bool   // 200, neither fell back nor canceled
	fellBack bool   // answered fell_back or canceled
}

// answer is one decoded request outcome.
type answer struct {
	ok bool // 200 and every function answered (clean or fallback)
	// malformed marks a 200 whose body does not decode into one answer
	// per submitted function: a wrong output, not a failed request.
	malformed bool
	fns       []fnAnswer
	server    int64 // backend-reported elapsed_ms
}

// batchBody is the wire shape of POST /optimize/batch answers.
type batchBody struct {
	Results []struct {
		Status int `json:"status"`
		lcmclient.Response
	} `json:"results"`
	Pending   int   `json:"pending"`
	ElapsedMS int64 `json:"elapsed_ms"`
}

// decodeAnswer decodes the answer to a request for fns sent to path
// into per-function answers.
func decodeAnswer(path string, fns []int, s sample) answer {
	var a answer
	if s.Err != nil || s.Status != http.StatusOK {
		return a
	}
	if strings.HasPrefix(path, "/optimize/batch") {
		var b batchBody
		if json.Unmarshal(s.Body, &b) != nil || b.Pending > 0 || len(b.Results) != len(fns) {
			a.malformed = true
			return a
		}
		a.server = b.ElapsedMS
		for k, r := range b.Results {
			if r.Status != http.StatusOK {
				return answer{}
			}
			a.fns = append(a.fns, fnAnswer{fn: fns[k], text: r.Program,
				clean: !r.FellBack && !r.Canceled, fellBack: r.FellBack || r.Canceled})
		}
		a.ok = true
		return a
	}
	var r lcmclient.Response
	if json.Unmarshal(s.Body, &r) != nil {
		a.malformed = true
		return a
	}
	a.server = r.ElapsedMS
	parts := splitFuncs(r.Program)
	if len(parts) != len(fns) {
		a.malformed = true
		return a
	}
	for k, p := range parts {
		a.fns = append(a.fns, fnAnswer{fn: fns[k], text: p,
			clean: !r.FellBack && !r.Canceled, fellBack: r.FellBack || r.Canceled})
	}
	a.ok = true
	return a
}

// splitFuncs splits a printed module at its "func" header lines.
func splitFuncs(src string) []string {
	var out []string
	start := 0
	for i := 0; i < len(src); i++ {
		if strings.HasPrefix(src[i:], "func ") && (i == 0 || src[i-1] == '\n') && i > start {
			out = append(out, strings.TrimSpace(src[start:i])+"\n")
			start = i
		}
	}
	if rest := strings.TrimSpace(src[start:]); rest != "" {
		out = append(out, rest+"\n")
	}
	return out
}

// anonymize drops a function's name from its header, so renamed copies
// of one function compare equal.
func anonymize(src string) string {
	_, rest, _ := strings.Cut(src, "(")
	return "func _(" + rest
}

func hashText(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:12])
}

// verdict is the interpreted comparison of one (input, output) pair.
type verdict struct {
	wrong                   bool
	why                     string
	evalsBefore, evalsAfter int
	sizeBefore, sizeAfter   int
}

// checker collects every answered function of a run. It requires that
// all clean answers for one input are byte-identical (up to the
// function's name), and interprets each distinct (input, output) pair
// against the original with the independent interpreter.
type checker struct {
	st *stream

	mu      sync.Mutex
	answers []fnAnswer
}

func newChecker(st *stream) *checker { return &checker{st: st} }

func (c *checker) add(fas ...fnAnswer) {
	c.mu.Lock()
	c.answers = append(c.answers, fas...)
	c.mu.Unlock()
}

// report is the checker's verdict over a run.
type report struct {
	answered     int      // function answers checked
	wrong        int      // answers whose interpreted behaviour differs
	fellBack     int      // answers that fell back or were canceled
	inconsistent []string // functions answered differently within the run
	why          []string // first few reasons for wrong answers
	// clean maps each function to the verdict of its clean answer.
	clean map[int]verdict
}

// judgeAll interprets every distinct (input, output) pair on par
// goroutines and folds the verdicts over all answers.
func (c *checker) judgeAll(par int) report {
	type pair struct{ in, out string }
	type job struct {
		fn  int
		out string
	}
	idx := map[pair]int{}
	var jobs []job
	keys := make([]int, len(c.answers))
	first := map[int]string{}
	rep := report{clean: map[int]verdict{}}
	for i, fa := range c.answers {
		out := anonymize(fa.text)
		if fa.clean {
			if prev, ok := first[fa.fn]; !ok {
				first[fa.fn] = out
			} else if prev != out {
				rep.inconsistent = append(rep.inconsistent, funcName(c.st.src(fa.fn)))
			}
		}
		// Renamed copies share an anonymized input, so cold-large
		// interprets each distinct function once, not once per request.
		k := pair{anonymize(c.st.src(fa.fn)), out}
		j, ok := idx[k]
		if !ok {
			j = len(jobs)
			idx[k] = j
			jobs = append(jobs, job{fa.fn, fa.text})
		}
		keys[i] = j
	}
	verdicts := make([]verdict, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(jobs); j += par {
				orig, err := textir.ParseFunction(c.st.src(jobs[j].fn))
				if err != nil {
					verdicts[j] = verdict{wrong: true, why: fmt.Sprintf("generated input unparsable: %v", err)}
					continue
				}
				verdicts[j] = judge(orig, jobs[j].out)
			}
		}(w)
	}
	wg.Wait()
	for i, fa := range c.answers {
		v := verdicts[keys[i]]
		rep.answered++
		if fa.fellBack {
			rep.fellBack++
		}
		if v.wrong {
			rep.wrong++
			if len(rep.why) < 3 {
				rep.why = append(rep.why, funcName(c.st.src(fa.fn))+": "+v.why)
			}
		}
		if fa.clean {
			rep.clean[fa.fn] = v
		}
	}
	return rep
}

// digest hashes the reference set's anonymized answers in order, so two
// invocations with one seed can be compared by one line.
func (c *checker) digest(ref []int) string {
	first := map[int]string{}
	for _, fa := range c.answers {
		if _, ok := first[fa.fn]; !ok && fa.clean {
			first[fa.fn] = anonymize(fa.text)
		}
	}
	h := sha256.New()
	for _, fn := range ref {
		fmt.Fprintf(h, "%s %s\n", hashText(anonymize(c.st.src(fn))), hashText(first[fn]))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// judge interprets an output against its original on argSets seeded
// argument vectors and counts candidate-expression evaluations over the
// original's expression universe.
func judge(orig *ir.Function, outSrc string) verdict {
	var v verdict
	out, err := textir.ParseFunction(outSrc)
	if err != nil {
		return verdict{wrong: true, why: fmt.Sprintf("unparsable answer: %v", err)}
	}
	exprs := props.Collect(orig).Exprs()
	v.sizeBefore, v.sizeAfter = orig.NumInstrs(), out.NumInstrs()
	for k := 1; k <= argSets; k++ {
		args := randprog.Args(orig, int64(k))
		o1, c1, err1 := interp.Run(orig, interp.Options{Args: args})
		o2, c2, err2 := interp.Run(out, interp.Options{Args: args})
		if err1 != nil || err2 != nil {
			return verdict{wrong: true, why: fmt.Sprintf("interpreter error: %v %v", err1, err2)}
		}
		if !o1.ObservablyEqual(o2) {
			return verdict{wrong: true, why: fmt.Sprintf("behaviour differs on %v: %s vs %s", args, o1, o2)}
		}
		v.evalsBefore += interp.CountsRestrictedTo(c1, exprs).Total()
		v.evalsAfter += interp.CountsRestrictedTo(c2, exprs).Total()
	}
	return v
}
