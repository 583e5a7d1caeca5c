# Flag fuzz: runs each driver with every numeric flag set, one at a time,
# to each of a few hostile values, on top of a small base run.  Passes only
# if every run exits 0 (ran) or 2 (usage error with a message) - never a
# signal, a sanitizer report or any other status.
#
#   cmake -DCGSIM=<bin> -DTUNING_ADVISOR=<bin> -DFAILURE_DRILL=<bin>
#         -DTRACE_RING=<bin> -DFAULT_CAMPAIGN=<bin> -DMEMBERSHIP_MONITOR=<bin>
#         -DBSP_CONVERGENCE=<bin> -DQUICKSTART=<bin> -DFIG1_COLORING=<bin>
#         -DFIG3_OCG_TUNING=<bin> -DFIG5_CCG_TUNING=<bin> -DFIG9_FCG_TUNING=<bin>
#         -DFIG7A_SCALING=<bin> -DFIG7B_SCALING_FAILURES=<bin>
#         -DTABLE7_CASE_STUDY=<bin> -DABLATION_MARGIN=<bin>
#         -DEXT_CONCURRENT=<bin> -DEXT_PUSH_PULL=<bin> -DEXT_ALLREDUCE=<bin>
#         -DEXT_HIERARCHICAL=<bin> -DABLATION_CHAIN_CORRECTION=<bin>
#         -DABLATION_FCG_F=<bin> -DABLATION_JITTER=<bin>
#         -DABLATION_MESSAGE_LOSS=<bin> -DABLATION_RX_POLICY=<bin>
#         -P flag_fuzz.cmake
#
# 1, 2 and 3 reach the small counts (one node, a root and one peer, fewer
# nodes than a driver's failures) that the hostile values never do.
#
# --shards and --threads get no valid value above 8: a multi-shard run asks
# the thread pool for one thread per shard.  2^63 is rejected before any
# thread starts (both flags stop at kMaxThreads, common/flags.hpp).
set(values "-1" "0" "1" "2" "3" "" "9223372036854775808" "abc")
set(pool_values "-1" "0" "" "abc" "8" "9223372036854775808")
set(base --n=64 --trials=1)
set(fig7a_scaling_base --max-n=64 --trials=1)
set(fig7b_scaling_failures_base --max-n=64 --trials=1)
set(ext_allreduce_base --max-n=64 --trials=1)

set(cgsim_flags
    n l o eps f pre-fail online-fail seed trials jitter drop-prob drop
    burst-loss burst-mean restart restart-outage stragglers
    straggler-factor partition byz t corr drain-extra series-stride
    sample-k heartbeat)
set(cgsim_pool_flags threads shards)
set(tuning_advisor_flags n active l o runs psi f)
set(tuning_advisor_pool_flags)
set(failure_drill_flags
    n trials seed drop-prob burst-loss burst-mean restart stragglers byz
    heartbeat)
set(failure_drill_pool_flags threads shards)
set(trace_ring_flags n t seed corr f)
set(trace_ring_pool_flags)
set(fault_campaign_flags n seed trials byz heartbeat)
set(fault_campaign_pool_flags threads)
set(membership_monitor_flags n rounds seed)
set(membership_monitor_pool_flags)
set(bsp_convergence_flags n tol seed)
set(bsp_convergence_pool_flags)
set(quickstart_flags n seed)
set(quickstart_pool_flags threads)
set(fig1_coloring_flags n trials seed tmax)
set(fig1_coloring_pool_flags)
set(fig3_ocg_tuning_flags n trials seed tmin tmax eps)
set(fig3_ocg_tuning_pool_flags threads)
set(fig5_ccg_tuning_flags n trials seed tmin tmax eps)
set(fig5_ccg_tuning_pool_flags threads)
set(fig9_fcg_tuning_flags n trials seed f tmin tmax eps)
set(fig9_fcg_tuning_pool_flags threads)
set(fig7a_scaling_flags max-n trials seed eps)
set(fig7a_scaling_pool_flags threads shards)
set(fig7b_scaling_failures_flags max-n trials seed eps)
set(fig7b_scaling_failures_pool_flags threads shards)
set(table7_case_study_flags n trials seed eps)
set(table7_case_study_pool_flags threads)
set(ablation_margin_flags n trials seed eps)
set(ablation_margin_pool_flags threads)
set(ext_concurrent_flags n trials seed)
set(ext_concurrent_pool_flags)
set(ext_push_pull_flags n trials seed)
set(ext_push_pull_pool_flags)
set(ext_allreduce_flags max-n trials seed)
set(ext_allreduce_pool_flags)
set(ext_hierarchical_flags n rack seed trials)
set(ext_hierarchical_pool_flags)
set(ablation_chain_correction_flags n trials seed)
set(ablation_chain_correction_pool_flags threads)
set(ablation_fcg_f_flags n trials seed)
set(ablation_fcg_f_pool_flags threads)
set(ablation_jitter_flags n trials seed)
set(ablation_jitter_pool_flags threads)
set(ablation_message_loss_flags n trials seed)
set(ablation_message_loss_pool_flags)
set(ablation_rx_policy_flags n trials seed)
set(ablation_rx_policy_pool_flags threads)

set(failures "")
set(runs 0)
foreach(prog cgsim tuning_advisor failure_drill trace_ring fault_campaign
             membership_monitor bsp_convergence quickstart fig1_coloring
             fig3_ocg_tuning fig5_ccg_tuning fig9_fcg_tuning fig7a_scaling
             fig7b_scaling_failures table7_case_study ablation_margin
             ext_concurrent ext_push_pull ext_allreduce ext_hierarchical
             ablation_chain_correction ablation_fcg_f ablation_jitter
             ablation_message_loss ablation_rx_policy)
  string(TOUPPER "${prog}" var)
  set(bin "${${var}}")
  set(prog_base ${base})
  if(DEFINED ${prog}_base)
    set(prog_base ${${prog}_base})
  endif()
  # The sample reservoir is read only when a sample is written.
  set(extra "")
  if(prog STREQUAL "cgsim")
    set(extra --sample-out=flag_fuzz_sample.jsonl)
  endif()
  foreach(kind "" _pool)
    if(kind STREQUAL "_pool")
      set(vals ${pool_values})
    else()
      set(vals ${values})
    endif()
    foreach(flag IN LISTS ${prog}${kind}_flags)
      foreach(v IN LISTS vals)
        execute_process(COMMAND "${bin}" ${prog_base} ${extra} "--${flag}=${v}"
                        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
        math(EXPR runs "${runs} + 1")
        if(NOT rc STREQUAL "0" AND NOT rc STREQUAL "2")
          string(APPEND failures
                 "  ${prog} --${flag}=${v}: exit status '${rc}'\n${err}\n")
        endif()
      endforeach()
    endforeach()
  endforeach()
endforeach()
file(REMOVE flag_fuzz_sample.jsonl)
if(failures)
  message(FATAL_ERROR "flag fuzz: runs ended by neither 0 nor 2:\n${failures}")
endif()
message(STATUS "flag fuzz: ${runs} runs, every one exited 0 or 2")
