package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/serve"
)

// TestDeterminismStandardOracleDaemon holds the daemon's handler to
// Standard's specification (core's standardOracle) bit for bit: requests
// naming "standard" on and off the register grid and under one block,
// on three layouts, α ∈ {1, 1.5} and β ∈ {0, 0.5, 1}, each as an
// unnamed request (a one-item GEMMBatch) and, on the recursive layouts,
// as a named one (its A a cached plan, GEMMPrepackedBatch), C returned
// whole and rebuilt here from the seeds.
func TestDeterminismStandardOracleDaemon(t *testing.T) {
	s := serve.New(serve.Config{Workers: 2})
	defer func() {
		if err := s.Drain(context.Background()); err != nil {
			t.Error(err)
		}
	}()
	h := s.Handler()
	// (α, β), each pair on every shape
	ab := [][2]float64{{1, 0}, {1.5, 0.5}, {1, 1}, {1.5, 0}, {1, 0.5}, {1.5, 1}}
	shapes := [][3]int{{64, 64, 32}, {100, 100, 40}, {7, 9, 5}, {64, 64, 3}, {40, 30, 1}, {2, 200, 64}} // m, k, n
	for si, sh := range shapes {
		for li, lay := range []string{"z", "c", "h"} {
			for _, name := range []string{"", "w"} {
				if name != "" && lay == "c" {
					continue // a plan is recursive storage
				}
				x := ab[(si+li)%len(ab)]
				req := serve.Request{Tenant: "t", M: sh[0], K: sh[1], N: sh[2], AName: name, ASeed: int64(si + 1), BSeed: int64(li + 11),
					CSeed: 21, Alpha: &x[0], Beta: x[1], Alg: "standard", Layout: lay, ReturnData: true}
				what := fmt.Sprintf("%dx%dx%d layout %q a_name %q α=%g β=%g", sh[0], sh[1], sh[2], lay, name, x[0], x[1])
				body, err := json.Marshal(&req)
				if err != nil {
					t.Fatal(err)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/gemm", strings.NewReader(string(body))))
				var resp serve.Response
				if rec.Code != http.StatusOK || json.NewDecoder(rec.Body).Decode(&resp) != nil || resp.AlgRan != "standard" {
					t.Fatalf("%s: status %d, ran %q", what, rec.Code, resp.AlgRan)
				}
				want := matrix.RandomSeeded(req.M, req.N, req.CSeed)
				core.StandardOracle(false, false, x[0], matrix.RandomSeeded(req.M, req.K, req.ASeed),
					matrix.RandomSeeded(req.K, req.N, req.BSeed), x[1], want)
				differ := 0
				for i, w := range want.Data {
					if i >= len(resp.Data) || math.Float64bits(resp.Data[i]) != math.Float64bits(w) {
						differ++
					}
				}
				if differ != 0 || len(resp.Data) != len(want.Data) {
					t.Errorf("%s: %d of %d elements differ from the specification (%d returned)", what, differ, len(want.Data), len(resp.Data))
				}
			}
		}
	}
}
