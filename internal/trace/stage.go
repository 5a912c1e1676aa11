package trace

// Stage identifies one segment of a transaction's end-to-end path. The
// txn-scoped stages (admission through ack-wait) are recorded against a
// sampled transaction's TxnTrace; the engine-scoped stages (log reserve /
// fill, ship hops, replica delivery/apply) are recorded by subsystems that
// don't know which transaction they serve, sampled independently at the
// same rate via Tracer.SampleHop.
type Stage uint8

const (
	// StageAdmission is ExecAsync's wait on the engine's execution gate
	// (drain/quiesce interlock) before the flow is dispatched.
	StageAdmission Stage = iota
	// StageQueueWait is the time an action message sat in its partition
	// inbox (plus local-lock wait) before its body ran.
	StageQueueWait
	// StageExec is action-body execution on the owning worker (for a
	// suspending action, the portion before the first suspend).
	StageExec
	// StageSuspend is a suspended action's wall time from Suspend to
	// resume: the full foreign round trip as the transaction sees it.
	StageSuspend
	// StageShip is a shipMsg's flight time from enqueue to the owning
	// worker picking it up (one outbound hop).
	StageShip
	// StageKont is a kontMsg's flight time back to the home worker.
	StageKont
	// StageLogAppend is sm.CommitAsync's synchronous log append of the
	// commit record (reserve + fill, from the transaction's view).
	StageLogAppend
	// StageLogReserve is the clog consolidation-array reserve: from
	// Append entry to the group's base LSN being assigned.
	StageLogReserve
	// StageLogFill is the clog buffer copy: EncodeInto + finishCopy.
	StageLogFill
	// StageFlushWait is from ForceAsync to the flush daemon hardening
	// the commit LSN (group flush wait).
	StageFlushWait
	// StageLockRelease is the ELR broadcast releasing the transaction's
	// local locks after the commit record is in the log buffer.
	StageLockRelease
	// StageAckWait is the commit-gate wait (semi-sync K-replica ack).
	StageAckWait
	// StageReplDeliver is a replica hardening one delivered extent into
	// its own log.
	StageReplDeliver
	// StageReplApply is a replica redo-applying one delivered extent
	// (including the pool sync barrier).
	StageReplApply

	stageCount
)

var stageNames = [stageCount]string{
	StageAdmission:   "admission",
	StageQueueWait:   "queue_wait",
	StageExec:        "exec",
	StageSuspend:     "suspend",
	StageShip:        "ship",
	StageKont:        "kont",
	StageLogAppend:   "log_append",
	StageLogReserve:  "log_reserve",
	StageLogFill:     "log_fill",
	StageFlushWait:   "flush_wait",
	StageLockRelease: "lock_release",
	StageAckWait:     "ack_wait",
	StageReplDeliver: "repl_deliver",
	StageReplApply:   "repl_apply",
}

// String returns the stage's snake_case name (stable; used as the metric
// label in the monitor snapshot and the Prometheus exposition).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}
