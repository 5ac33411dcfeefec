(** Heimdall: least privilege for managed network services.

    This is the library façade: it re-exports every subsystem under one
    roof and provides the one-call entry points a downstream user needs
    to run the full workflow.  See README.md for a guided tour.

    - {!Net}: addresses, prefixes, topology, ACLs, flows
    - {!Config}: the device configuration language
    - {!Control}: control-plane simulation (OSPF/static) and dataplanes
    - {!Verify}: flow tracing, policies, the spec miner
    - {!Privilege}: the Privilege_msp DSL and evaluator
    - {!Lint}: static analysis over configs, ACLs and privilege specs
    - {!Twin}: twin-network slicing, emulation, reference monitor
    - {!Enforcer}: verification, scheduling, audit, enclave
    - {!Msp}: tickets, workflows, the RMM baseline, attack scenarios
    - {!Scenarios}: the two Table-1 evaluation networks and their issues *)

module Net = struct
  module Ipv4 = Heimdall_net.Ipv4
  module Prefix = Heimdall_net.Prefix
  module Ifaddr = Heimdall_net.Ifaddr
  module Prefix_trie = Heimdall_net.Prefix_trie
  module Graph = Heimdall_net.Graph
  module Topology = Heimdall_net.Topology
  module Flow = Heimdall_net.Flow
  module Acl = Heimdall_net.Acl
end

module Json = Heimdall_json.Json

module Config = struct
  module Ast = Heimdall_config.Ast
  module Parser = Heimdall_config.Parser
  module Printer = Heimdall_config.Printer
  module Change = Heimdall_config.Change
  module Redact = Heimdall_config.Redact
end

module Control = struct
  module Network = Heimdall_control.Network
  module L2 = Heimdall_control.L2
  module Fib = Heimdall_control.Fib
  module Ospf = Heimdall_control.Ospf
  module Dataplane = Heimdall_control.Dataplane
  module Loader = Heimdall_control.Loader
end

module Verify = struct
  module Trace = Heimdall_verify.Trace
  module Policy = Heimdall_verify.Policy
  module Spec_miner = Heimdall_verify.Spec_miner
  module Reachability = Heimdall_verify.Reachability
  module Engine = Heimdall_verify.Engine
end

module Privilege = struct
  module Action = Heimdall_privilege.Action
  module Spec = Heimdall_privilege.Privilege
  module Dsl = Heimdall_privilege.Dsl
  module Json_frontend = Heimdall_privilege.Json_frontend
end

module Lint = struct
  module Diagnostic = Heimdall_lint.Diagnostic
  module Config_lint = Heimdall_lint.Config_lint
  module Acl_lint = Heimdall_lint.Acl_lint
  module Priv_lint = Heimdall_lint.Priv_lint
  module Check = Heimdall_lint.Lint
end

module Twin = struct
  module Command = Heimdall_twin.Command
  module Slicer = Heimdall_twin.Slicer
  module Emulation = Heimdall_twin.Emulation
  module Presentation = Heimdall_twin.Presentation
  module Session = Heimdall_twin.Session
  module Build = Heimdall_twin.Twin
end

module Enforcer = struct
  module Sha256 = Heimdall_enforcer.Sha256
  module Audit = Heimdall_enforcer.Audit
  module Enclave = Heimdall_enforcer.Enclave
  module Verifier = Heimdall_enforcer.Verifier
  module Scheduler = Heimdall_enforcer.Scheduler
  module Pipeline = Heimdall_enforcer.Enforcer
end

module Msp = struct
  module Ticket = Heimdall_msp.Ticket
  module Issue = Heimdall_msp.Issue
  module Priv_gen = Heimdall_msp.Priv_gen
  module Rmm = Heimdall_msp.Rmm
  module Timing = Heimdall_msp.Timing
  module Workflow = Heimdall_msp.Workflow
  module Attacks = Heimdall_msp.Attacks
  module Emergency = Heimdall_msp.Emergency
end

module Scenarios = struct
  module Builder = Heimdall_scenarios.Builder
  module Enterprise = Heimdall_scenarios.Enterprise
  module University = Heimdall_scenarios.University
  module Metrics = Heimdall_scenarios.Metrics
  module Campaign = Heimdall_scenarios.Campaign
  module Experiments = Heimdall_scenarios.Experiments
end

(** Mine the policy set of a network (config2spec stand-in), from the
    engine's memoized dataplane of it. *)
let mine_policies ~engine ?options network =
  Heimdall_verify.Spec_miner.mine ?options (Heimdall_verify.Engine.dataplane engine network)
