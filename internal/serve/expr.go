package serve

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"odinhpc/internal/comm"
	"odinhpc/internal/core"
	"odinhpc/internal/fusion"
	"odinhpc/internal/seamless"
	"odinhpc/internal/seamless/compile"
)

// ExprRequest is POST /v1/expr: a seamless array expression evaluated over
// named distributed arrays of length n, reduced to its global sum. The
// source is one expression of the seamless kernel language (seamless.
// ParseExpr) in which every name is an array; it reaches the fusion VM
// through the lowering compiled kernels use (compile.Lower). The arrays are
// deterministic functions of (name, global index), cached warm per rank, and
// so is the fusion.Plan bound to them: a repeated (source, n) is a map probe
// and one sweep. A plan prepared on a miss takes its compiled program from
// fusion's process-wide single-flight plan cache, so structurally equal
// expressions across groups, requests and tenants share one program.
type ExprRequest struct {
	Expr string `json:"expr"`
	N    int    `json:"n"`

	ast  seamless.Expr // immutable after Validate: shared read-only by every rank
	vars []string      // its variable names, sorted
}

// ExprResponse is the expression job result.
type ExprResponse struct {
	Sum    float64  `json:"sum"`
	Mean   float64  `json:"mean"`
	N      int      `json:"n"`
	Vars   []string `json:"vars"`
	Millis float64  `json:"millis"`
}

// Validate parses the expression server-side so malformed input costs zero
// group time, and pins the caps (source length, array size, variable
// count). Front-end rejections carry the seamless line:col.
func (r *ExprRequest) Validate() error {
	if len(r.Expr) == 0 {
		return badReq("empty expression")
	}
	if len(r.Expr) > maxExprLen {
		return badReq("expression source %d bytes over the %d cap", len(r.Expr), maxExprLen)
	}
	if r.N <= 0 || r.N > maxExprN {
		return badReq("n %d outside [1,%d]", r.N, maxExprN)
	}
	ast, err := seamless.ParseExpr(r.Expr)
	if err != nil {
		return badReq("%v", err)
	}
	vars, err := compile.FreeNames(ast, nil)
	if err != nil {
		return badReq("%v", err)
	}
	if len(vars) == 0 {
		return badReq("expression has no array variables")
	}
	if len(vars) > maxExprVars {
		return badReq("%d variables over the %d cap", len(vars), maxExprVars)
	}
	sort.Strings(vars)
	r.ast, r.vars = ast, vars
	return nil
}

// varSeed is variable name's fill seed, in [0, 1): its FNV-1a hash mod 1000,
// over 1000. An array computes it once, not per element.
func varSeed(name string) float64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return float64(h.Sum64()%1000) / 1000
}

// varAt is the deterministic value at global index g of the variable whose
// seed is seed: positive and bounded away from zero, so well-formed
// expressions with division stay finite.
func varAt(seed float64, g int) float64 {
	return 0.5 + 0.4*math.Sin(seed*7+float64(g)*3)
}

// arrayKey names one warm array: the variable and its length.
type arrayKey struct {
	name string
	n    int
}

// array returns the rank's warm distributed array for (name, n).
func (st *RankState) array(name string, n int) *core.DistArray[float64] {
	key := arrayKey{name, n}
	if a, ok := st.arrays[key]; ok {
		return a
	}
	seed := varSeed(name)
	a := core.FromFunc(st.Ctx, []int{n}, func(gidx []int) float64 {
		return varAt(seed, gidx[0])
	})
	st.arrays[key] = a
	return a
}

// planKey names one warm plan: the expression source and the array length.
type planKey struct {
	src string
	n   int
}

// planCap bounds RankState.plans with the policy of fusion's program cache:
// on overflow the whole map is dropped. The decision depends only on the
// job sequence, which every rank of a group shares, so ranks never disagree
// about what is warm (and no collective depends on it: served leaves are
// always conformable, so preparing a plan communicates nothing).
const planCap = 512

// root lowers the validated expression onto the rank's warm arrays: Var
// leaves, then the lowering compiled kernels use.
func (r *ExprRequest) root(st *RankState) (*fusion.Expr, error) {
	leaves := make([]*fusion.Expr, len(r.vars))
	for i, v := range r.vars {
		leaves[i] = fusion.Var(st.array(v, r.N))
	}
	return compile.Lower(r.ast, func(e seamless.Expr) (*fusion.Expr, error) {
		if nx, ok := e.(*seamless.NameExpr); ok {
			return leaves[sort.SearchStrings(r.vars, nx.Name)], nil
		}
		return nil, nil
	})
}

// plan returns the rank's warm plan for the request, preparing it on first
// use (root, then fusion.Analyze). Rank 0 counts the probe for /v1/stats.
func (st *RankState) plan(r *ExprRequest) (*fusion.Plan, error) {
	key := planKey{r.Expr, r.N}
	p, warm := st.plans[key]
	if st.Ctx.Rank() == 0 {
		if warm {
			st.stats.planHits.Add(1)
		} else {
			st.stats.planMisses.Add(1)
		}
	}
	if warm {
		return p, nil
	}
	root, err := r.root(st)
	if err != nil {
		return nil, err
	}
	if len(st.plans) >= planCap {
		st.plans = make(map[planKey]*fusion.Plan)
	}
	p = fusion.Analyze(root)
	st.plans[key] = p
	return p, nil
}

// Job builds the per-rank body for a validated expression request: probe
// (or prepare) the plan, one fused reduction — the lane hand-off that gave
// every rank this job is the control message — and the response, which
// rank 0 writes into the job record.
func (r *ExprRequest) Job() JobFunc {
	return func(c *comm.Comm, st *RankState) (any, error) {
		t0 := time.Now()
		plan, err := st.plan(r)
		if err != nil {
			return nil, err
		}
		sum := plan.Sum()
		if c.Rank() != 0 {
			return nil, nil
		}
		if !finite(sum) {
			return nil, fmt.Errorf("expression reduced to a %w", errNonFinite)
		}
		resp := &st.answer.expr
		*resp = ExprResponse{
			Sum:    sum,
			Mean:   sum / float64(r.N),
			N:      r.N,
			Vars:   r.vars,
			Millis: float64(time.Since(t0).Microseconds()) / 1000,
		}
		return resp, nil
	}
}
