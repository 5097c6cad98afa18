package isolate

import (
	"strings"
	"testing"
	"time"

	"predator/internal/core"
	"predator/internal/jaguar"
	"predator/internal/types"
)

// Tests for the batched crossing (msgInvokeBatch/msgResultBatch): result
// parity with the scalar protocol, per-row error isolation, callbacks
// serviced mid-batch, and crash/hang recovery at batch boundaries.

func batchArgs(n int) []types.Value {
	args := make([]types.Value, n)
	for i := range args {
		args[i] = types.NewBytes([]byte{byte(i), byte(i + 1)})
	}
	return args
}

func asBatch(t *testing.T, u core.UDF) core.BatchUDF {
	t.Helper()
	bu, ok := u.(core.BatchUDF)
	if !ok {
		t.Fatal("isolated UDF does not implement core.BatchUDF")
	}
	return bu
}

func TestInvokeBatchMatchesScalar(t *testing.T) {
	u := NewNativeIsolated("sumbytes", []types.Kind{types.KindBytes}, types.KindInt)
	defer u.Close()
	bu := asBatch(t, u)
	const n = 10
	args := batchArgs(n)
	out := make([]core.BatchResult, n)
	if err := bu.InvokeBatch(nil, 1, args, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want, err := u.Invoke(nil, args[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		if out[i].Err != nil || out[i].Value.Int != want.Int {
			t.Errorf("row %d: batch=%v (%v), scalar=%v", i, out[i].Value, out[i].Err, want)
		}
	}
}

func TestInvokeBatchPerRowErrorDoesNotPoisonSiblings(t *testing.T) {
	u := NewNativeIsolated("failodd", []types.Kind{types.KindInt}, types.KindInt)
	defer u.Close()
	bu := asBatch(t, u)
	const n = 6
	args := make([]types.Value, n)
	for i := range args {
		args[i] = types.NewInt(int64(i))
	}
	out := make([]core.BatchResult, n)
	if err := bu.InvokeBatch(nil, 1, args, out); err != nil {
		t.Fatalf("whole batch failed: %v", err)
	}
	for i := 0; i < n; i++ {
		if i%2 != 0 {
			if out[i].Err == nil || !strings.Contains(out[i].Err.Error(), "odd input") {
				t.Errorf("row %d: err = %v, want odd-input failure", i, out[i].Err)
			}
			if core.FaultClassOf(out[i].Err) != core.FaultUDF {
				t.Errorf("row %d: class = %v, want FaultUDF", i, core.FaultClassOf(out[i].Err))
			}
			continue
		}
		if out[i].Err != nil || out[i].Value.Int != int64(i*10) {
			t.Errorf("row %d poisoned by odd sibling: %v (%v)", i, out[i].Value, out[i].Err)
		}
	}
	// The executor survives per-row errors and keeps serving.
	if err := bu.InvokeBatch(nil, 1, args[:2], out[:2]); err != nil {
		t.Errorf("follow-up batch failed: %v", err)
	}
}

func TestInvokeBatchServicesCallbacksMidBatch(t *testing.T) {
	u := NewNativeIsolated("cbprobe", []types.Kind{types.KindInt}, types.KindInt)
	defer u.Close()
	bu := asBatch(t, u)
	cb := &memCallback{data: []byte{9, 8, 7}}
	const n = 4
	args := make([]types.Value, n)
	for i := range args {
		args[i] = types.NewInt(1)
	}
	out := make([]core.BatchResult, n)
	if err := bu.InvokeBatch(&core.Ctx{Callback: cb}, 1, args, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		// size=3, get(1)=8, read len=2 -> 3*1000 + 8*10 + 2 = 3082
		if out[i].Err != nil || out[i].Value.Int != 3082 {
			t.Errorf("row %d: %v (%v), want 3082", i, out[i].Value, out[i].Err)
		}
	}
	// cbprobe touches once per row: every row's callbacks crossed the
	// boundary mid-batch, not just the first.
	if cb.touches != n {
		t.Errorf("touches = %d, want %d", cb.touches, n)
	}
}

func TestInvokeBatchCrashMidBatchReportsRowAndRecovers(t *testing.T) {
	t.Setenv(FaultEnv, "batchrow:crash:3")
	u := WithSupervision(NewNativeIsolated("sumbytes", []types.Kind{types.KindBytes}, types.KindInt), fastSup)
	defer u.Close()
	bu := asBatch(t, u)
	const n = 8
	args := batchArgs(n)
	out := make([]core.BatchResult, n)
	err := bu.InvokeBatch(nil, 1, args, out)
	if err == nil {
		t.Fatal("crashed batch reported success")
	}
	// The dying gasp names the in-flight row, so the error pinpoints
	// which row was being evaluated when the child died.
	if !strings.Contains(err.Error(), "batch row 3") {
		t.Errorf("error does not report failing row: %v", err)
	}

	// Disarm and recover: only the in-flight batch was lost; the same
	// handle serves again from a fresh executor. The dying child may
	// still be mid-reap when the error surfaces, so allow one broken
	// handle to be detected and dropped along the way.
	InjectFault("")()
	var rerr error
	for attempt := 0; attempt < 3; attempt++ {
		rerr = bu.InvokeBatch(nil, 1, args, out)
		if rerr == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if rerr != nil {
		t.Fatalf("no clean restart after mid-batch crash: %v", rerr)
	}
	for i := 0; i < n; i++ {
		if out[i].Err != nil || out[i].Value.Int != int64(2*i+1) {
			t.Errorf("post-recovery row %d: %v (%v)", i, out[i].Value, out[i].Err)
		}
	}
}

func TestInvokeBatchHangMidBatchTimesOut(t *testing.T) {
	t.Setenv(FaultEnv, "batchrow:hang:2")
	u := WithSupervision(NewNativeIsolated("sumbytes", []types.Kind{types.KindBytes}, types.KindInt), fastSup)
	defer u.Close()
	bu := asBatch(t, u)
	const n = 8
	out := make([]core.BatchResult, n)
	start := time.Now()
	err := bu.InvokeBatch(nil, 1, batchArgs(n), out)
	if core.FaultClassOf(err) != core.FaultTimeout {
		t.Fatalf("hung batch returned %v (class %v), want FaultTimeout", err, core.FaultClassOf(err))
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline took %v to fire mid-batch", elapsed)
	}
}

func TestInvokeBatchVMIsolated(t *testing.T) {
	classBytes, err := jaguar.CompileToBytes(`
	func triple(n int) int { return n * 3; }`, "Triple")
	if err != nil {
		t.Fatal(err)
	}
	u := NewVMIsolated("triple", []types.Kind{types.KindInt}, types.KindInt, VMSetup{
		ClassBytes: classBytes, Method: "triple",
	})
	defer u.Close()
	bu := asBatch(t, u)
	const n = 7
	args := make([]types.Value, n)
	for i := range args {
		args[i] = types.NewInt(int64(i))
	}
	out := make([]core.BatchResult, n)
	if err := bu.InvokeBatch(nil, 1, args, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if out[i].Err != nil || out[i].Value.Int != int64(i*3) {
			t.Errorf("row %d: %v (%v), want %d", i, out[i].Value, out[i].Err, i*3)
		}
	}
}

func TestInvokeBatchOfOneTakesScalarPath(t *testing.T) {
	// n == 1 must delegate to the legacy scalar protocol: a success
	// returns the value, a UDF failure lands in out[0].Err (not the
	// batch-level error), exactly as a one-row batch should.
	sum := asBatch(t, NewNativeIsolated("sumbytes", []types.Kind{types.KindBytes}, types.KindInt))
	defer sum.Close()
	out := make([]core.BatchResult, 1)
	if err := sum.InvokeBatch(nil, 1, batchArgs(1), out); err != nil {
		t.Fatal(err)
	}
	if out[0].Err != nil || out[0].Value.Int != 1 {
		t.Errorf("batch-of-one = %v (%v), want 1", out[0].Value, out[0].Err)
	}

	fail := asBatch(t, NewNativeIsolated("fail", nil, types.KindInt))
	defer fail.Close()
	out[0] = core.BatchResult{}
	if err := fail.InvokeBatch(nil, 0, nil, out); err != nil {
		t.Fatalf("UDF error escaped as batch error: %v", err)
	}
	if out[0].Err == nil || !strings.Contains(out[0].Err.Error(), "deliberate failure") {
		t.Errorf("out[0].Err = %v, want deliberate failure", out[0].Err)
	}
}

func TestInvokeBatchEmptyAndShapeChecks(t *testing.T) {
	u := asBatch(t, NewNativeIsolated("sumbytes", []types.Kind{types.KindBytes}, types.KindInt))
	defer u.Close()
	// Zero rows is a no-op, not a protocol exchange.
	if err := u.InvokeBatch(nil, 1, nil, nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	// Mismatched arity and ragged args are rejected before any crossing.
	out := make([]core.BatchResult, 2)
	if err := u.InvokeBatch(nil, 2, make([]types.Value, 4), out); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := u.InvokeBatch(nil, 1, make([]types.Value, 3), out); err == nil {
		t.Error("ragged args accepted")
	}
}

// TestCoerceToDeclaredKind: results take the UDF's declared kind
// (a Jaguar bool crosses as INT 0/1); NULLs and matching kinds pass.
func TestCoerceToDeclaredKind(t *testing.T) {
	for _, tc := range []struct {
		ret      types.Kind
		in, want types.Value
	}{
		{types.KindBool, types.NewInt(1), types.NewBool(true)},
		{types.KindBool, types.NewInt(0), types.NewBool(false)},
		{types.KindBool, types.Null(), types.Null()},
		{types.KindFloat, types.NewInt(3), types.NewFloat(3)},
		{types.KindInt, types.NewInt(7), types.NewInt(7)},
		{types.KindString, types.NewString("x"), types.NewString("x")},
	} {
		u := &udf{ret: tc.ret}
		if got := u.coerce(tc.in); got.Kind != tc.want.Kind || got.String() != tc.want.String() {
			t.Errorf("coerce(%v) to %s = %v, want %v", tc.in, tc.ret, got, tc.want)
		}
	}
}
