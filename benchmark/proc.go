package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// processStart is as close to exec as Go code can see; the one-shot
// workloads' set-up clock starts here because a library user pays process
// start. Every measurement runs in a process of its own (main.go).
var processStart = time.Now()

// buildDir is where build outputs and scratch data live, inside the
// checkout and git-ignored.
const buildDir = ".bench_build"

// findRepoRoot walks up from the working directory to the module that
// holds cmd/renamed: `go run -C benchmark .` starts in benchmark/.
func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "renamed", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cmd/renamed not found above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildServer compiles cmd/renamed once into the build directory. The
// build happens before any setup clock starts.
func buildServer(root string) (string, error) {
	out := filepath.Join(root, buildDir, "renamed")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/renamed")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/renamed: %v\n%s", err, msg)
	}
	return out, nil
}

// live is every server this process started and has not yet stopped,
// and every scratch directory it made, so that no exit path — error,
// panic, signal — leaves one behind. Error paths therefore just return.
var live = struct {
	sync.Mutex
	procs map[*serverProc]struct{}
	dirs  []string
}{procs: map[*serverProc]struct{}{}}

// cleanUp stops whatever servers are still running, waits for them, and
// removes the scratch directories.
func cleanUp() {
	live.Lock()
	procs := make([]*serverProc, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	dirs := live.dirs
	live.dirs = nil
	live.Unlock()
	for _, p := range procs {
		p.stop()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// serverProc is one running renamed.
type serverProc struct {
	cmd      *exec.Cmd
	httpAddr string
	binAddr  string
	// recovered is the lease count from the durable boot banner (-1
	// without -data-dir).
	recovered int
	waited    chan struct{}
}

// serverGOMAXPROCS leaves one core to the load generator when there is
// more than one.
func serverGOMAXPROCS() int { return max(1, runtime.NumCPU()-1) }

// startServer launches renamed on ephemeral loopback ports. extra carries
// the workload's flags (-capacity, -ttl, -data-dir, ...).
func startServer(bin string, extra ...string) (*serverProc, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-listen-bin", "127.0.0.1:0"}, extra...)
	return startProc(exec.Command(bin, args...))
}

// startTracked starts cmd with its standard output piped back and tracks
// it so that no exit path leaves it running.
func startTracked(cmd *exec.Cmd) (*serverProc, io.Reader, error) {
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, err
	}
	p := &serverProc{cmd: cmd, recovered: -1, waited: make(chan struct{})}
	live.Lock()
	live.procs[p] = struct{}{}
	live.Unlock()
	go func() {
		cmd.Wait()
		close(p.waited)
	}()
	return p, stdout, nil
}

// startProc starts cmd as a server under test, with the server's
// GOMAXPROCS, and returns once both of renamed's listen banners have been
// read from its standard output.
func startProc(cmd *exec.Cmd) (*serverProc, error) {
	if cmd.Env == nil {
		cmd.Env = os.Environ()
	}
	cmd.Env = append(cmd.Env, "GOMAXPROCS="+strconv.Itoa(serverGOMAXPROCS()))
	p, stdout, err := startTracked(cmd)
	if err != nil {
		return nil, err
	}
	// Pinned straight after exec, while the runtime has barely started:
	// every thread it creates from here on inherits the mask.
	pinProcess(cmd.Process.Pid, serverCPUs())
	type banner struct {
		http, bin string
		recovered int
		err       error
	}
	got := make(chan banner, 1)
	go func() {
		b := banner{recovered: -1}
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "renamed: recovered "):
				fmt.Sscanf(line, "renamed: recovered %d leases", &b.recovered)
			case strings.HasPrefix(line, "renamed: serving binary protocol"):
				b.bin = line[strings.LastIndex(line, " ")+1:]
			case strings.HasPrefix(line, "renamed: serving "):
				b.http = line[strings.LastIndex(line, " ")+1:]
			}
			if b.http != "" && b.bin != "" {
				got <- b
				io.Copy(io.Discard, stdout) // keep the pipe drained
				return
			}
		}
		b.err = errors.New("renamed exited before printing both listen banners")
		got <- b
	}()
	select {
	case b := <-got:
		if b.err != nil {
			p.stop()
			return nil, b.err
		}
		p.httpAddr, p.binAddr, p.recovered = b.http, b.bin, b.recovered
		return p, nil
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, errors.New("renamed printed no listen banners within 60s")
	}
}

// stop kills the server and waits until it has ended. SIGKILL, not a
// graceful drain: the benchmark owns every lease and the data directory
// is deleted afterwards, so there is nothing to save.
func (p *serverProc) stop() {
	p.cmd.Process.Kill()
	<-p.waited
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
}

// procUsage is a /proc snapshot of one process.
type procUsage struct {
	userS, sysS float64
	ctxSwitches int64
	hwmMB       float64
}

func (u procUsage) cpuS() float64 { return u.userS + u.sysS }

// clockTick is USER_HZ; Linux fixes it at 100 for every architecture Go
// supports, and /proc/<pid>/stat counts CPU time in it.
const clockTick = 100

// readProcUsage samples CPU time, context switches (summed over threads:
// /proc/<pid>/status only covers the main thread) and peak RSS of pid.
func readProcUsage(pid int) (procUsage, error) {
	var u procUsage
	base := "/proc/" + strconv.Itoa(pid)
	stat, err := os.ReadFile(base + "/stat")
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, so 12 and 13 after the ") ".
	rest := string(stat)
	rest = rest[strings.LastIndex(rest, ")")+2:]
	f := strings.Fields(rest)
	if len(f) < 14 {
		return u, fmt.Errorf("%s/stat: short line", base)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	u.userS, u.sysS = ut/clockTick, st/clockTick

	status, err := os.ReadFile(base + "/status")
	if err != nil {
		return u, err
	}
	u.hwmMB = statusField(string(status), "VmHWM:") / 1024
	tasks, err := os.ReadDir(base + "/task")
	if err != nil {
		return u, err
	}
	for _, t := range tasks {
		ts, err := os.ReadFile(base + "/task/" + t.Name() + "/status")
		if err != nil {
			continue // thread exited between ReadDir and here
		}
		u.ctxSwitches += int64(statusField(string(ts), "voluntary_ctxt_switches:") +
			statusField(string(ts), "nonvoluntary_ctxt_switches:"))
	}
	return u, nil
}

// statusField pulls one numeric field out of a /proc status file.
func statusField(status, key string) float64 {
	for _, line := range strings.Split(status, "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}

// selfUsage is readProcUsage for the benchmark's own process with
// microsecond CPU resolution from getrusage.
func selfUsage() procUsage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	u := procUsage{
		userS:       float64(ru.Utime.Sec) + float64(ru.Utime.Usec)/1e6,
		sysS:        float64(ru.Stime.Sec) + float64(ru.Stime.Usec)/1e6,
		ctxSwitches: ru.Nvcsw + ru.Nivcsw,
	}
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		u.hwmMB = statusField(string(status), "VmHWM:") / 1024
	}
	return u
}

// cpuTimeNs is the CPU time pid has used so far, in nanoseconds: the
// scheduler's own per-thread run time from /proc/<pid>/task/*/schedstat,
// summed. Where the kernel keeps no schedstat it falls back on the 10 ms
// ticks of /proc/<pid>/stat.
func cpuTimeNs(pid int) int64 {
	base := "/proc/" + strconv.Itoa(pid)
	var total int64
	tasks, _ := os.ReadDir(base + "/task")
	for _, t := range tasks {
		b, err := os.ReadFile(base + "/task/" + t.Name() + "/schedstat")
		if err != nil {
			continue // thread exited between ReadDir and here, or no schedstat
		}
		run, _, _ := strings.Cut(string(b), " ")
		ns, _ := strconv.ParseInt(run, 10, 64)
		total += ns
	}
	if total == 0 {
		if u, err := readProcUsage(pid); err == nil {
			total = int64(u.cpuS() * 1e9)
		}
	}
	return total
}

// cpuSampler reads a process's CPU time about once a second while a
// window runs, for the per-second cpu_us_per_op.
type cpuSampler struct {
	at    []time.Time
	cpuNs []int64
	stop  chan struct{}
	done  chan struct{}
}

// sampleCPU takes a first reading of pid now and one every second until
// finish. There is no last reading at finish: the sliver of a second it
// would close holds a handful of drained completions against next to no
// CPU, and a ratio like that is what a quiet decile would pick.
func sampleCPU(pid int) *cpuSampler {
	s := &cpuSampler{stop: make(chan struct{}), done: make(chan struct{})}
	read := func() {
		s.at = append(s.at, time.Now())
		s.cpuNs = append(s.cpuNs, cpuTimeNs(pid))
	}
	read()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				read()
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// finish stops the readings and returns them, timed from origin.
func (s *cpuSampler) finish(origin time.Time) []cpuPoint {
	close(s.stop)
	<-s.done
	points := make([]cpuPoint, len(s.at))
	for i := range points {
		points[i] = cpuPoint{atNs: int64(s.at[i].Sub(origin)), cpuNs: s.cpuNs[i]}
	}
	return points
}

// hostSteal reads the machine-wide steal and total CPU ticks from
// /proc/stat: time the hypervisor ran someone else while this guest had
// work. A window's share of it goes into the run's notes, so a number
// that moved because the neighbours were busy says so itself.
func hostSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealPct is the share of CPU time stolen between two hostSteal reads.
func stealPct(steal0, total0 float64) float64 {
	steal1, total1 := hostSteal()
	if total1 <= total0 {
		return 0
	}
	return (steal1 - steal0) / (total1 - total0) * 100
}

// envStamp is the machine a run happened on, printed with every run so
// "the container has one core" is in the output, not in a caveat.
type envStamp struct {
	NProc            int    `json:"nproc"`
	ServerCPUs       []int  `json:"server_cpus"`
	GeneratorCPUs    []int  `json:"generator_cpus"`
	IdleSpinners     int    `json:"idle_spinners"`
	BenchGOMAXPROCS  int    `json:"bench_gomaxprocs"`
	ServerGOMAXPROCS int    `json:"server_gomaxprocs"`
	Kernel           string `json:"kernel"`
	GoVersion        string `json:"go_version"`
	Seed             uint64 `json:"seed"`
	WindowS          int    `json:"window_s"`
}

func stamp(seed uint64, windowS int) envStamp {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return envStamp{
		NProc:            runtime.NumCPU(),
		ServerCPUs:       serverCPUs(),
		GeneratorCPUs:    generatorCPUs(),
		IdleSpinners:     idleSpinners,
		BenchGOMAXPROCS:  runtime.GOMAXPROCS(0),
		ServerGOMAXPROCS: serverGOMAXPROCS(),
		Kernel:           kernel,
		GoVersion:        runtime.Version(),
		Seed:             seed,
		WindowS:          windowS,
	}
}

// allowedCPUs is the CPU set this process started with; pinning only
// ever narrows within it.
var allowedCPUs = func() []int {
	var mask [16]uint64 // 1024 CPUs
	n, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if e != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < int(n)*8; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}()

// The service workloads split the machine: the load generator keeps the
// first allowed CPU, the server gets the rest. Unpinned, the kernel
// moves three or four busy threads around two cores, and latency and
// CPU per op fall into two or three modes depending on who landed
// beside whom. With one CPU there is nothing to split.
func generatorCPUs() []int {
	if len(allowedCPUs) < 2 {
		return allowedCPUs
	}
	return allowedCPUs[:1]
}

func serverCPUs() []int {
	if len(allowedCPUs) < 2 {
		return allowedCPUs
	}
	return allowedCPUs[1:]
}

// pinProcess restricts every thread of pid to cpus. Threads created
// later inherit the mask from the thread that creates them. Pinning is a
// noise control, not a requirement: where the kernel refuses it the run
// goes on unpinned.
func pinProcess(pid int, cpus []int) {
	var mask [16]uint64
	for _, c := range cpus {
		mask[c/64] |= 1 << (c % 64)
	}
	tasks, err := os.ReadDir("/proc/" + strconv.Itoa(pid) + "/task")
	if err != nil || len(cpus) == 0 {
		return
	}
	for _, t := range tasks {
		tid, _ := strconv.Atoi(t.Name())
		syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	}
}

// A virtual CPU that goes idle halts, and waking it again is the host's
// business: how long that takes depends on what the neighbours are doing.
// Every workload here whose server sleeps between requests pays that
// wake-up many times per op, and between identical runs their latency and
// throughput moved by 15-30% while pure computation moved by 5%. So for the
// length of a service workload's run (the in-process pair keeps every CPU
// busy itself, and measured 3% slower with spinners beside it for no gain
// in repeatability) every allowed CPU carries one thread that spins at
// SCHED_IDLE priority: the CPU never halts, any other thread that becomes
// runnable preempts the spinner at once, and a wake-up is a context switch
// inside the guest. The spinners are this same program started again with
// spinEnv set, one process per CPU, so that no runtime with real work in it
// has a thread it cannot schedule.

// spinEnv, when set, turns the program into the idle-priority spinner for
// the CPU it names.
const spinEnv = "BENCHMARK_SPIN_CPU"

// schedIdle is Linux's SCHED_IDLE policy: runs only when the CPU would
// otherwise be idle. Lowering one's own priority needs no privilege.
const schedIdle = 5

// spin pins the calling thread to cpu, drops it to SCHED_IDLE, says so on
// standard output and never returns.
func spin(cpu int) error {
	runtime.LockOSThread()
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", cpu, e)
	}
	var param struct{ priority int32 }
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); e != 0 {
		return fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", e)
	}
	fmt.Println("spinning")
	for {
	}
}

// idleSpinners is how many CPUs carry a spinner; every run's env line
// says.
var idleSpinners int

// startSpinners starts one spinner per allowed CPU and waits until each
// has dropped its priority. Where the kernel refuses, the run goes on
// without and its output says so.
func startSpinners() {
	self, err := os.Executable()
	if err != nil {
		return
	}
	for _, cpu := range allowedCPUs {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), spinEnv+"="+strconv.Itoa(cpu), "GOMAXPROCS=1")
		p, stdout, err := startTracked(cmd)
		if err != nil {
			continue
		}
		if line, _ := bufio.NewReader(stdout).ReadString('\n'); line != "spinning\n" {
			p.stop()
			continue
		}
		idleSpinners++
	}
}
