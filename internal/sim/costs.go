package sim

// Costs is the calibrated virtual-time cost table.  The communication
// constants reproduce the paper's Table 3 (VMMC on Myrinet with PentiumPro
// hosts); the library and OS constants reproduce the direct-cost rows of
// Table 4.  All values are virtual durations or integer per-byte rates in
// picoseconds, so every duration derived here is exact integer arithmetic
// on any host (cmd/doccheck keeps floats out of this file, task.go and
// internal/wire); experiments derive every reported number from these plus
// the protocol's message/fault counts.
type Costs struct {
	// --- VMMC / SAN (Table 3) ---

	// SendBase is the fixed one-way cost of a send, excluding per-byte time.
	SendBase Time
	// SendPerBytePs is the additional one-way latency per payload byte, in
	// picoseconds.  Calibrated from the 1-word (7.8us) and 4KB (52us) send
	// latencies.
	SendPerBytePs int64
	// FetchBase is the fixed round-trip cost of a direct remote read.
	FetchBase Time
	// FetchPerBytePs is the additional round-trip latency per fetched byte,
	// in picoseconds.  Calibrated from the 1-word (22us) and 4KB (81us)
	// fetch latencies.
	FetchPerBytePs int64
	// OccupancyPerBytePs is per-byte NIC/link occupancy in picoseconds; its
	// inverse is the streaming bandwidth (125 MB/s in the paper).
	OccupancyPerBytePs int64
	// Notification is the extra receiver-side cost of delivering a
	// notification (handler dispatch), on top of the carrying send.
	Notification Time

	// --- Node operating system (WindowsNT model unless reconfigured) ---

	// OSThreadCreate is the local OS cost of creating a kernel thread.
	OSThreadCreate Time
	// OSRemoteThreadCreate is the remote OS share of a remote thread create.
	OSRemoteThreadCreate Time
	// OSMapSegment is the OS cost of (re)mapping a virtual-memory segment.
	OSMapSegment Time
	// OSBlockWake is the cost of waking a thread that blocked on an OS event
	// (the slow half of spin-then-block synchronization).
	OSBlockWake Time
	// SpinBeforeBlock is how long a synchronization primitive spins before
	// parking the thread on an OS event.
	SpinBeforeBlock Time
	// MapGranularity is the smallest unit, in bytes, at which the OS can remap
	// virtual memory.  WindowsNT: 64 KB; this single constant drives the
	// paper's data-placement overhead results.
	MapGranularity int

	// --- CableS library processing (Table 4 direct costs) ---

	ThreadCreateLocal     Time // library work for a local pthread_create
	ThreadCreateReqLocal  Time // local library work for a remote create
	ThreadCreateReqRemote Time // remote library work for a remote create
	ThreadCreateComm      Time // communication share of a remote create

	AttachLocal    Time // master-side library work when attaching a node
	AttachLocalOS  Time // master-side OS work when attaching a node
	AttachRemote   Time // new-node library initialization
	AttachRemoteOS Time // new-node process creation (OS)
	AttachComm     Time // mapping-exchange communication

	MutexLocalFast      Time // lock already cached on this node
	MutexLocalFirstBase Time // first acquire, local: library share
	MutexLocalFirstComm Time // first acquire, local: registration comm
	MutexRemoteBase     Time // lock last held on another node: library share
	MutexRemoteRemote   Time // ...: remote-node library share
	MutexRemoteComm     Time // ...: communication share
	MutexRemoteFirstAdd Time // extra comm on very first remote acquire
	MutexUnlock         Time

	CondWaitLocal   Time // library share of a condition wait
	CondWaitComm    Time // ACB update communication of a condition wait
	CondSignalLocal Time
	CondSignalOS    Time
	CondSignalComm  Time
	CondBcastLocal  Time
	CondBcastOS     Time
	CondBcastComm   Time // per waiting node

	BarrierNative     Time // GeNIMA native barrier, fixed share
	BarrierNativeComm Time // GeNIMA native barrier, communication share

	SegMigrateLocal    Time // segment migration: library share
	SegMigrateLocalOS  Time // segment migration: OS remap share
	SegMigrateComm     Time // segment migration off the ACB owner: comm share
	SegDetectLocal     Time // owner detect, information cached
	SegDetectFirstComm Time // owner detect, first time: directory fetch
	AdminReqLocal      Time // administration request: library share
	AdminReqComm       Time // administration request: communication share

	// --- Protocol processing (GeNIMA page handling) ---

	FaultHandler  Time  // fixed software fault-handling cost per page fault
	DiffCreate    Time  // twin comparison cost per dirty page
	DiffPerBytePs int64 // diff encoding cost per byte, picoseconds
	WriteNotice   Time  // per write notice processed at an acquire

	// --- Application modelling ---

	// MemAccess is the charged cost of one shared-memory access that hits in
	// local memory (amortized cache/DRAM model).
	MemAccess Time
}

// DefaultCosts returns the cost table calibrated against the paper.
func DefaultCosts() *Costs {
	return &Costs{
		// Table 3. 1-word send: 7.71us + 8B*10.8ns ~= 7.8us.
		// 4KB send: 7.71us + 4096B*10.8ns ~= 52us.
		SendBase:      7710 * Nanosecond,
		SendPerBytePs: 10800,
		// 1-word fetch: 21.9us + 8B*14.4ns ~= 22us; 4KB: ~81us.
		FetchBase:      21880 * Nanosecond,
		FetchPerBytePs: 14400,
		// 125 MB/s => 8 ns per byte.
		OccupancyPerBytePs: 8000,
		Notification:       10200 * Nanosecond, // 7.8us send + 10.2us = 18us

		OSThreadCreate:       626 * Microsecond,
		OSRemoteThreadCreate: 622 * Microsecond,
		OSMapSegment:         66 * Microsecond,
		OSBlockWake:          1500 * Microsecond,
		SpinBeforeBlock:      200 * Microsecond,
		MapGranularity:       64 << 10,

		ThreadCreateLocal:     140 * Microsecond,
		ThreadCreateReqLocal:  110 * Microsecond,
		ThreadCreateReqRemote: 40 * Microsecond,
		ThreadCreateComm:      47 * Microsecond,

		AttachLocal:    1 * Millisecond,
		AttachLocalOS:  523 * Millisecond,
		AttachRemote:   1978 * Millisecond,
		AttachRemoteOS: 2031 * Millisecond,
		AttachComm:     1188 * Millisecond,

		MutexLocalFast:      4 * Microsecond,
		MutexLocalFirstBase: 10 * Microsecond,
		MutexLocalFirstComm: 23 * Microsecond,
		MutexRemoteBase:     16 * Microsecond,
		MutexRemoteRemote:   35 * Microsecond,
		MutexRemoteComm:     50 * Microsecond,
		MutexRemoteFirstAdd: 22 * Microsecond,
		MutexUnlock:         6 * Microsecond,

		CondWaitLocal:   5 * Microsecond,
		CondWaitComm:    15 * Microsecond,
		CondSignalLocal: 14 * Microsecond,
		CondSignalOS:    2 * Microsecond,
		CondSignalComm:  85 * Microsecond,
		CondBcastLocal:  7 * Microsecond,
		CondBcastOS:     2 * Microsecond,
		CondBcastComm:   101 * Microsecond,

		BarrierNative:     5 * Microsecond,
		BarrierNativeComm: 65 * Microsecond,

		SegMigrateLocal:    92 * Microsecond,
		SegMigrateLocalOS:  67 * Microsecond,
		SegMigrateComm:     92 * Microsecond,
		SegDetectLocal:     1 * Microsecond,
		SegDetectFirstComm: 22 * Microsecond,
		AdminReqLocal:      2 * Microsecond,
		AdminReqComm:       18 * Microsecond,

		FaultHandler:  30 * Microsecond,
		DiffCreate:    15 * Microsecond,
		DiffPerBytePs: 2000,
		WriteNotice:   1 * Microsecond,

		MemAccess: 20 * Nanosecond,
	}
}

// perByte returns size bytes at ps picoseconds each, truncated to the
// nanosecond.
func perByte(size int, ps int64) Time {
	return Time(int64(size) * ps / 1000)
}

// SendTime returns the one-way latency of a message carrying size bytes.
func (c *Costs) SendTime(size int) Time {
	return c.SendBase + perByte(size, c.SendPerBytePs)
}

// FetchTime returns the round-trip latency of a direct remote read of size
// bytes.
func (c *Costs) FetchTime(size int) Time {
	return c.FetchBase + perByte(size, c.FetchPerBytePs)
}

// Occupancy returns how long size bytes occupy a NIC (inverse bandwidth).
func (c *Costs) Occupancy(size int) Time {
	return perByte(size, c.OccupancyPerBytePs)
}

// DiffTime returns the cost of creating and shipping a diff of size bytes.
func (c *Costs) DiffTime(size int) Time {
	return c.DiffCreate + perByte(size, c.DiffPerBytePs)
}

// LinuxOS reconfigures the OS-dependent constants to a Linux-like profile:
// 4 KB remap granularity and cheaper thread creation.  Used by the ablation
// benchmarks; the paper ports CableS to Linux as future work.
func (c *Costs) LinuxOS() *Costs {
	c.MapGranularity = 4 << 10
	c.OSThreadCreate = 120 * Microsecond
	c.OSRemoteThreadCreate = 120 * Microsecond
	c.OSMapSegment = 12 * Microsecond
	return c
}
