// Command servesmoke is the end-to-end exercise of wheretimed that
// the CI check job runs (make serve-smoke): it builds the daemon,
// starts it against a temp store, and walks the robustness contract
// over real HTTP and real signals —
//
//  1. concurrent identical POSTs coalesce into fewer simulations and
//     byte-identical responses;
//  2. corrupting a stored trace quarantines the file and the cell
//     recomputes correctly (byte-identical to a fresh-store server);
//  3. a concurrent burst of K platform variants of one workload forms
//     a single gang — one simulation for the whole burst — and every
//     response is byte-identical to a -gangwindow=0 control server's;
//  4. SIGTERM under load drains: the in-flight request completes, the
//     store flushes, and the process exits 0;
//  5. SIGTERM sent the moment /readyz first answers 200 drains too: the
//     daemon subscribes to the signal before it listens.
//
// The in-process fault-injection suite (internal/server) proves the
// same properties with deterministic faults; this command proves them
// for the real binary, listener, and signal handler.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "servesmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("servesmoke: ok")
}

// proc is one running wheretimed with its captured stderr.
type proc struct {
	cmd  *exec.Cmd
	addr string

	mu     sync.Mutex
	stderr bytes.Buffer
	waited chan struct{}
}

// stderrText snapshots the process's stderr so far.
func (p *proc) stderrText() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stderr.String()
}

// start launches bin with the given store directory (plus any extra
// flags) and waits for the "listening on" line to learn the picked
// port.
func start(bin, storeDir string, extra ...string) (*proc, error) {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-store", storeDir,
		"-scale", "0.002",
	}
	cmd := exec.Command(bin, append(args, extra...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, waited: make(chan struct{})}

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			fmt.Fprintln(&p.stderr, line)
			p.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "wheretimed: listening on "); ok {
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
		close(p.waited)
	}()

	select {
	case addr := <-addrCh:
		p.addr = addr
		return p, nil
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		return nil, fmt.Errorf("server did not announce its address; stderr:\n%s", p.stderrText())
	}
}

// stop SIGTERMs the server and returns its exit code once the drain
// finishes.
func (p *proc) stop() (int, error) {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return -1, err
	}
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case <-done:
		<-p.waited // stderr fully drained
		return p.cmd.ProcessState.ExitCode(), nil
	case <-time.After(3 * time.Minute):
		p.cmd.Process.Kill()
		return -1, fmt.Errorf("server did not exit after SIGTERM; stderr:\n%s", p.stderrText())
	}
}

// post sends one cell spec and returns status and body.
func post(addr, body string) (int, []byte, error) {
	resp, err := http.Post("http://"+addr+"/v1/cells", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// healthz is the slice of /healthz this smoke asserts on.
type healthz struct {
	Status      string `json:"status"`
	Simulations int64  `json:"simulations"`
	Coalesced   int64  `json:"coalesced"`
	Batch       *struct {
		BatchedRequests int64   `json:"batchedRequests"`
		GangsFormed     int64   `json:"gangsFormed"`
		MeanK           float64 `json:"meanK"`
		CapCloses       int64   `json:"capCloses"`
	} `json:"batch"`
	Store *struct {
		Quarantined  int `json:"quarantined"`
		EntriesAdded int `json:"entriesAdded"`
	} `json:"store"`
}

// waitReady polls /readyz until it first answers 200.
func waitReady(addr string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("/readyz never answered 200")
}

func getHealth(addr string) (healthz, error) {
	var h healthz
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&h)
	return h, err
}

func run() error {
	tmp, err := os.MkdirTemp("", "servesmoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "wheretimed")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/wheretimed").CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}

	storeDir := filepath.Join(tmp, "store")
	p, err := start(bin, storeDir)
	if err != nil {
		return err
	}
	defer p.cmd.Process.Kill()

	// 1. Coalescing: concurrent identical POSTs, one simulation's worth
	// of work, byte-identical bodies.
	const cell = `{"kind":"micro","system":"B","query":"SRS"}`
	const n = 8
	bodies := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, b, err := post(p.addr, cell)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d: %s", status, b)
			}
			bodies[i], errs[i] = b, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("concurrent POST %d: %w", i, err)
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			return fmt.Errorf("POST %d body differs from POST 0", i)
		}
	}
	h, err := getHealth(p.addr)
	if err != nil {
		return err
	}
	if h.Simulations+h.Coalesced != n || h.Coalesced < 1 {
		return fmt.Errorf("coalescing: simulations=%d coalesced=%d, want sum %d with coalesced >= 1",
			h.Simulations, h.Coalesced, n)
	}
	fmt.Printf("servesmoke: coalesced %d/%d requests into %d simulation(s)\n", h.Coalesced, n, h.Simulations)

	// 2. Corruption: rot every stored trace byte-wise, then measure a
	// platform variant that warm-starts from them. The server must
	// quarantine and recompute.
	traces, err := filepath.Glob(filepath.Join(storeDir, "tr-*.trace"))
	if err != nil || len(traces) == 0 {
		return fmt.Errorf("no trace files in the store (%v)", err)
	}
	for _, path := range traces {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
	}
	const variant = `{"kind":"micro","system":"B","query":"SRS","l2kb":1024}`
	status, got, err := post(p.addr, variant)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("variant POST after corruption: status %d err %v: %s", status, err, got)
	}
	h, err = getHealth(p.addr)
	if err != nil {
		return err
	}
	if h.Store == nil || h.Store.Quarantined < 1 {
		return fmt.Errorf("corrupt trace was not quarantined: %+v", h.Store)
	}
	if m, _ := filepath.Glob(filepath.Join(storeDir, "tr-*.trace.corrupt")); len(m) == 0 {
		return fmt.Errorf("no .corrupt file on disk after quarantine")
	}
	fmt.Printf("servesmoke: corrupt trace quarantined (%d), cell recomputed\n", h.Store.Quarantined)

	// The recompute is correct: a second server over a fresh store
	// must answer byte-identical bytes for the same cell.
	fresh, err := start(bin, filepath.Join(tmp, "store2"))
	if err != nil {
		return err
	}
	defer fresh.cmd.Process.Kill()
	status, want, err := post(fresh.addr, variant)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("fresh-store POST: status %d err %v", status, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("recompute after corruption differs from fresh compute:\n%s\nvs\n%s", got, want)
	}
	if code, err := fresh.stop(); err != nil || code != 0 {
		return fmt.Errorf("fresh server exit: code %d err %v", code, err)
	}

	// 3. Gang batching: a concurrent burst of K platform variants of
	// one workload lands in a single accumulation window (the cap
	// closes it as soon as all K arrive), runs as ONE gang simulation,
	// and answers byte-for-byte what a batching-off control server
	// answers. Fresh servers and stores keep the leg independent of
	// the cells earlier legs memoized.
	variants := []string{
		cell,
		variant,
		`{"kind":"micro","system":"B","query":"SRS","l2kb":2048}`,
	}
	k := len(variants)
	batched, err := start(bin, filepath.Join(tmp, "store-batch"),
		"-gangwindow", "5s", "-gangmax", fmt.Sprint(k))
	if err != nil {
		return err
	}
	defer batched.cmd.Process.Kill()
	burst := make([][]byte, k)
	burstErrs := make([]error, k)
	var bwg sync.WaitGroup
	for i, v := range variants {
		bwg.Add(1)
		go func(i int, v string) {
			defer bwg.Done()
			status, b, err := post(batched.addr, v)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d: %s", status, b)
			}
			burst[i], burstErrs[i] = b, err
		}(i, v)
	}
	bwg.Wait()
	for i, err := range burstErrs {
		if err != nil {
			return fmt.Errorf("burst POST %d: %w", i, err)
		}
	}
	h, err = getHealth(batched.addr)
	if err != nil {
		return err
	}
	if h.Batch == nil {
		return fmt.Errorf("no batch section in /healthz with batching on")
	}
	if h.Simulations != 1 || h.Batch.GangsFormed != 1 || h.Batch.MeanK != float64(k) || h.Batch.CapCloses != 1 {
		return fmt.Errorf("burst of %d variants: simulations=%d gangs=%d meanK=%g capCloses=%d, want one cap-closed gang of %d",
			k, h.Simulations, h.Batch.GangsFormed, h.Batch.MeanK, h.Batch.CapCloses, k)
	}
	control, err := start(bin, filepath.Join(tmp, "store-control"), "-gangwindow", "0")
	if err != nil {
		return err
	}
	defer control.cmd.Process.Kill()
	for i, v := range variants {
		status, wantBody, err := post(control.addr, v)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("control POST %d: status %d err %v", i, status, err)
		}
		if !bytes.Equal(burst[i], wantBody) {
			return fmt.Errorf("variant %d: batched response differs from -gangwindow=0 control:\n%s\nvs\n%s",
				i, burst[i], wantBody)
		}
	}
	hc, err := getHealth(control.addr)
	if err != nil {
		return err
	}
	if hc.Simulations != int64(k) || hc.Batch != nil {
		return fmt.Errorf("control: simulations=%d batch=%v, want %d unbatched simulations", hc.Simulations, hc.Batch, k)
	}
	if code, err := batched.stop(); err != nil || code != 0 {
		return fmt.Errorf("batched server exit: code %d err %v", code, err)
	}
	if code, err := control.stop(); err != nil || code != 0 {
		return fmt.Errorf("control server exit: code %d err %v", code, err)
	}
	fmt.Printf("servesmoke: burst of %d variants ran as 1 gang, byte-identical to the unbatched control\n", k)

	// 4. SIGTERM under load: fire a not-yet-memoized cell, signal while
	// it is in flight, and require the response to complete, the exit
	// code to be 0, and the store to have flushed.
	type result struct {
		status int
		err    error
	}
	inFlight := make(chan result, 1)
	go func() {
		status, b, err := post(p.addr, `{"kind":"micro","system":"D","query":"SJ"}`)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, b)
		}
		inFlight <- result{status, err}
	}()
	time.Sleep(100 * time.Millisecond) // let the flight open
	code, err := p.stop()
	if err != nil {
		return err
	}
	r := <-inFlight
	if r.err != nil {
		return fmt.Errorf("in-flight request during drain: %w", r.err)
	}
	if code != 0 {
		return fmt.Errorf("exit code %d after SIGTERM; stderr:\n%s", code, p.stderrText())
	}
	if _, err := os.Stat(filepath.Join(storeDir, "index.json")); err != nil {
		return fmt.Errorf("store not flushed on drain: %v", err)
	}
	if !strings.Contains(p.stderrText(), "wheretimed: drained") {
		return fmt.Errorf("no drain confirmation in stderr:\n%s", p.stderrText())
	}
	fmt.Println("servesmoke: SIGTERM drained cleanly, store flushed, exit 0")

	// 5. SIGTERM at readiness: signal the instant /readyz first answers
	// 200. The handler must already be installed, so the daemon drains
	// and exits 0 rather than dying to the default signal action.
	early, err := start(bin, filepath.Join(tmp, "store-early"))
	if err != nil {
		return err
	}
	defer early.cmd.Process.Kill()
	if err := waitReady(early.addr); err != nil {
		return err
	}
	code, err = early.stop()
	if err != nil {
		return err
	}
	if code != 0 || !strings.Contains(early.stderrText(), "wheretimed: drained") {
		return fmt.Errorf("SIGTERM at readiness: exit code %d; stderr:\n%s", code, early.stderrText())
	}
	fmt.Println("servesmoke: SIGTERM at first readiness drained cleanly, exit 0")
	return nil
}
