// Package sim assembles the full chip of Fig. 7 / Fig. 11 of the paper:
// out-of-order cores with private L1s, a distributed shared LLC on two
// bi-directional rings, one or two memory controllers with DDR3 behind them,
// LLC prefetchers with feedback throttling, and optionally the Enhanced
// Memory Controller with the cores' chain-generation units. A System runs
// one multiprogrammed workload deterministically and returns a Result with
// every statistic the paper's figures need.
//
// The remainder of this comment documents the message protocol the
// subsystems speak over the two rings; the types live in system.go.
//
// # Demand load path
//
//	core ──mReqToSlice──▶ LLC slice (lookupQ, +18cy)
//	  hit: slice ──mHitData──▶ core (Fill)
//	  miss: slice ──mReqToMC──▶ MC (queue; merging per line)
//	        DRAM read completes ──mFillToSlice──▶ slice (fillQ, +4cy, insert,
//	        directory update, evictions) ──mFillToCore──▶ core (Fill)
//
// # Write-through stores
//
//	core retire ──mStore──▶ slice
//	  hit: mark dirty (+ mEMCInval if the EMC caches the line)
//	  miss: ──mWriteback──▶ MC (DRAM write, no allocate)
//	LLC dirty evictions also travel as mWriteback.
//
// # Inclusive directory
//
//	LLC eviction with presence bits ──mL1Inval──▶ core(s)
//	LLC eviction with the EMC bit   ──mEMCInval──▶ MC(s)
//
// # Chain offload (§4.2–4.3 of the paper)
//
//	core TakeReadyChain ──mChainFlit×N──▶ MC (last flit carries the chain:
//	  installChain; PTE piggyback)
//	  no context: direct core.AbortRemoteChain (counted as a reject)
//	EMC executes when the source line's DRAM read completes (OnDRAMFill):
//	  each memory uop  ──mMemExec──▶ core (LSQ population; disambiguation)
//	     conflict: core ──mConflictAbort──▶ MC ──mChainAbort──▶ core
//	  loads predicted hit  ──mEMCLLCReq──▶ slice ──mEMCLLCData──▶ MC
//	  loads predicted miss ──(direct enqueue; directory probe safety net)
//	     remote channel: ──mCrossReq──▶ other MC ──mCrossData──▶ home MC
//	  completion ──mChainDone×N──▶ core (live-outs; last flit carries values)
//	  aborts (TLB miss, mispredicted branch) ──mChainAbort──▶ core,
//	     TLB miss additionally: core ──mPTEInstall──▶ MC
//
// Control-ring messages are 8-byte requests/notices; data-ring messages are
// 64-byte flits (cache lines, chain packets, live-in/live-out data). Within
// a (src, dst) pair the rings preserve order (tested), which multi-flit
// transfers rely on.
package sim
