package genima

// KeepFullLog turns interval-log compaction off for p, so the external
// compaction test can compare against the uncompacted log.  Call it before
// the run starts.
func KeepFullLog(p *Protocol) { p.noCompaction = true }
