//lint:file-allow wallclock the benchmark times real processes and real sockets; wall time is what it measures
//lint:file-allow nogoroutine the load generator's clients, the sampler and the signal handler are real goroutines, not engine-owned code

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"landmarkdht/internal/runtime/netrt"
)

const (
	ringSize = 4
	// Pinned ports are searched in [portLo, portHi): below the Linux
	// ephemeral range's upper part and above the well-known services.
	portLo, portHi = 20000, 60000
	// corpusSeed fixes the corpus every ring holds. The run's --seed
	// drives the operations, not the data: a different corpus moves the
	// members' shares (the skew of §3.4) and with them every number, and
	// the benchmark compares commits, not corpora.
	corpusSeed   = 1
	readyTimeout = 30 * time.Second
	opTimeout    = 10 * time.Second
)

// pinnedPorts returns, for each of n ring slots, the loopback port whose
// node identity lies closest to the slot's evenly spread ring position
// (2i+1)/2n · 2⁶⁴. A node's ring position is a hash of its listen
// address, so consecutive ports land within 10⁻⁶ of each other (one
// member owns everything) and ephemeral ports give a different ring
// every run; searching the hash pins a spread layout that is identical
// on every run.
func pinnedPorts(n int) []int {
	ports := make([]int, n)
	best := make([]uint64, n)
	for i := range best {
		best[i] = ^uint64(0)
	}
	for p := portLo; p < portHi; p++ {
		id := netrt.NodeID("127.0.0.1:" + strconv.Itoa(p))
		for i := range ports {
			target := uint64(2*i+1) * (^uint64(0)/uint64(2*n) + 1)
			d := id - target
			if target > id {
				d = target - id
			}
			if d > 1<<63 {
				d = -d // the short way round the ring
			}
			if d < best[i] {
				best[i], ports[i] = d, p
			}
		}
	}
	return ports
}

// ringAddrs returns the listen addresses of the ring's slots: pinned
// ports normally, port 0 under go test so that packages tested in
// parallel cannot collide.
func ringAddrs(ephemeral bool) ([]string, error) {
	addrs := make([]string, ringSize)
	if ephemeral {
		for i := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, fmt.Errorf("set-up: reserve a port: %w", err)
			}
			addrs[i] = ln.Addr().String()
			_ = ln.Close() //lint:allow errdrop port-reservation probe: the listener existed only to pick a free port
		}
		return addrs, nil
	}
	for i, p := range pinnedPorts(ringSize) {
		addrs[i] = "127.0.0.1:" + strconv.Itoa(p)
		ln, err := net.Listen("tcp", addrs[i])
		if err != nil {
			return nil, fmt.Errorf("set-up: pinned port %d (ring slot %d) is busy — is an earlier run's lmnode still alive? %w", p, i, err)
		}
		_ = ln.Close() //lint:allow errdrop busy-port probe: the listener existed only to test the bind
	}
	return addrs, nil
}

// children tracks every live lmnode process so that any exit path —
// normal return, failure, or a signal to the harness — can kill and
// reap them all.
var children = struct {
	sync.Mutex
	cmds map[*exec.Cmd]struct{}
}{cmds: make(map[*exec.Cmd]struct{})}

func reap(cmd *exec.Cmd) {
	children.Lock()
	_, live := children.cmds[cmd]
	delete(children.cmds, cmd)
	children.Unlock()
	if live {
		_ = cmd.Process.Kill() // the process may already have exited; Wait below reaps it either way
		_ = cmd.Wait()         // a killed child's exit status carries no information
	}
}

func reapAll() {
	children.Lock()
	cmds := make([]*exec.Cmd, 0, len(children.cmds))
	for c := range children.cmds {
		cmds = append(cmds, c)
	}
	children.Unlock()
	for _, c := range cmds {
		reap(c)
	}
}

// procRing is a ring of lmnode processes with one client per member.
type procRing struct {
	cmds    []*exec.Cmd
	addrs   []string
	clients []*netrt.Client
	store   []int // Info.Store per slot at full membership
	dataDir string
}

type ringOptions struct {
	bin       string // lmnode binary
	workDir   string // data dirs are created under it
	w         workload
	ephemeral bool
}

// bootRing spawns the ring and returns it once every member reports
// full membership and a client is dialled to each. The returned
// duration is the set-up time: first spawn to last dial.
func bootRing(o ringOptions) (*procRing, time.Duration, error) {
	addrs, err := ringAddrs(o.ephemeral)
	if err != nil {
		return nil, 0, err
	}
	r := &procRing{addrs: addrs}
	if o.w.durable {
		if r.dataDir, err = os.MkdirTemp(o.workDir, "data-"); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
	}
	start := time.Now()
	for i, addr := range addrs {
		args := []string{
			"-listen", addr,
			"-seed", strconv.Itoa(corpusSeed),
			"-metric", "euclid",
			"-objects", strconv.Itoa(o.w.objects),
			"-dim", strconv.Itoa(o.w.dim),
			"-landmarks", strconv.Itoa(o.w.landmarks),
			"-replicas", strconv.Itoa(o.w.replicas),
		}
		if i > 0 {
			// Joining every earlier member completes the membership by
			// handshake, without waiting for a gossip round.
			args = append(args, "-join", strings.Join(addrs[:i], ","))
		}
		if o.w.durable {
			args = append(args, "-data-dir", filepath.Join(r.dataDir, strconv.Itoa(i)))
		}
		cmd, err := spawn(o.bin, args, i, addr)
		if err != nil {
			r.stop()
			return nil, 0, err
		}
		r.cmds = append(r.cmds, cmd)
	}
	r.store = make([]int, ringSize)
	for i, addr := range addrs {
		c, err := netrt.Dial(addr, opTimeout)
		if err != nil {
			r.stop()
			return nil, 0, fmt.Errorf("set-up: dial slot %d (%s): %w", i, addr, err)
		}
		r.clients = append(r.clients, c)
		if r.store[i], err = awaitMembers(c, ringSize); err != nil {
			r.stop()
			return nil, 0, fmt.Errorf("set-up: slot %d: %w", i, err)
		}
	}
	return r, time.Since(start), nil
}

// awaitMembers polls a node until it reports n members and returns how
// many entries it stores under that membership.
func awaitMembers(c *netrt.Client, n int) (int, error) {
	for deadline := time.Now().Add(readyTimeout); ; time.Sleep(5 * time.Millisecond) {
		info, err := c.Info(opTimeout)
		if err != nil {
			return 0, err
		}
		if len(info.Members) == n {
			return info.Store, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("sees %d of %d members after %v", len(info.Members), n, readyTimeout)
		}
	}
}

// spawn starts one lmnode and waits for its ready line. The child dies
// with the harness (Pdeathsig) even when the harness is SIGKILLed.
func spawn(bin string, args []string, slot int, addr string) (*exec.Cmd, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("set-up: slot %d: %w", slot, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("set-up: start lmnode for slot %d: %w", slot, err)
	}
	children.Lock()
	children.cmds[cmd] = struct{}{}
	children.Unlock()
	ready := make(chan bool, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		ok := false
		for sc.Scan() {
			if !ok && strings.Contains(sc.Text(), "ready addr=") {
				ok = true
				ready <- true
			} // keep draining so the child never blocks on its stdout
		}
		if !ok {
			ready <- false
		}
	}()
	select {
	case ok := <-ready:
		if !ok {
			reap(cmd)
			return nil, fmt.Errorf("set-up: lmnode for slot %d on %s exited before its ready line: %s", slot, addr, strings.TrimSpace(stderr.String()))
		}
	case <-time.After(readyTimeout):
		reap(cmd)
		return nil, fmt.Errorf("set-up: lmnode for slot %d on %s not ready within %v", slot, addr, readyTimeout)
	}
	return cmd, nil
}

// stop closes the clients, kills and reaps every member, and removes
// the ring's data directories.
func (r *procRing) stop() {
	for _, c := range r.clients {
		_ = c.Close() // teardown of a client whose server is about to be killed
	}
	for _, cmd := range r.cmds {
		reap(cmd)
	}
	if r.dataDir != "" {
		_ = os.RemoveAll(r.dataDir) //lint:allow errdrop best-effort cleanup of scratch data; a leftover only wastes disk under the work dir
	}
}

func (r *procRing) pids() []int {
	pids := make([]int, len(r.cmds))
	for i, c := range r.cmds {
		pids[i] = c.Process.Pid
	}
	return pids
}

// clockTick is the kernel's USER_HZ, fixed at 100 on every Linux port
// Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the user+system CPU time a process has used, from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procHWM returns a process's peak resident set (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM in /proc/%d/status", pid)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuSnapshot reads the CPU used so far by each given process, and by
// the harness itself as the last element.
func cpuSnapshot(pids []int) ([]time.Duration, error) {
	out := make([]time.Duration, 0, len(pids)+1)
	for _, pid := range append(append([]int(nil), pids...), os.Getpid()) {
		c, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// buildNode compiles cmd/lmnode into dir and returns the binary's path.
func buildNode(dir string) (string, error) {
	bin := filepath.Join(dir, "lmnode")
	out, err := exec.Command("go", "build", "-o", bin, "landmarkdht/cmd/lmnode").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("build lmnode: %w\n%s", err, out)
	}
	return bin, nil
}

func (r *procRing) layout() layout {
	lay := layout{store: r.store}
	for _, a := range r.addrs {
		lay.ids = append(lay.ids, netrt.NodeID(a))
	}
	return lay
}
