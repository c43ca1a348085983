//! Failure-injection integration tests: the control plane must stay healthy when it receives
//! corrupted beacons, hash-mismatched on-demand algorithms, or hostile (non-terminating)
//! algorithm code.

use irec_core::beacon_db::BatchKey;
use irec_core::{
    IngressGateway, NodeConfig, OriginationSpec, PropagationPolicy, Rac, RacConfig,
    SharedAlgorithmStore,
};
use irec_crypto::{KeyRegistry, Signer, Verifier};
use irec_irvm::{Instruction, Program};
use irec_pcb::{AlgorithmRef, Pcb, PcbExtensions, StaticInfo};
use irec_sim::{Simulation, SimulationConfig};
use irec_topology::builder::{figure1, figure1_topology};
use irec_topology::{AsNode, Tier};
use irec_types::{
    AlgorithmId, AsId, Bandwidth, IfId, InterfaceGroupId, Latency, SimDuration, SimTime,
};
use std::sync::Arc;

fn beacon(registry: &KeyRegistry, origin: u64, extensions: PcbExtensions) -> Pcb {
    let signer = Signer::new(AsId(origin), registry.clone());
    let mut pcb = Pcb::originate(
        AsId(origin),
        0,
        SimTime::ZERO,
        SimTime::ZERO + SimDuration::from_hours(6),
        extensions,
    );
    pcb.extend(
        IfId::NONE,
        IfId(1),
        StaticInfo::origin(Latency::from_millis(10), Bandwidth::from_mbps(100), None),
        &signer,
    )
    .unwrap();
    pcb
}

fn local_as() -> AsNode {
    let mut node = AsNode::new(AsId(99), Tier::Tier2);
    node.interfaces.insert(
        IfId(1),
        irec_topology::Interface {
            id: IfId(1),
            owner: node.id,
            location: irec_types::GeoCoord::new(0.0, 0.0),
            link: irec_types::LinkId(0),
        },
    );
    node
}

/// Corrupted (bit-flipped) beacons are rejected at the ingress gateway and never reach the
/// ingress database, while valid beacons keep flowing.
#[test]
fn corrupted_beacons_are_dropped_without_poisoning_the_database() {
    let registry = KeyRegistry::with_ases(3, 16);
    let mut gateway = IngressGateway::new(AsId(99), Verifier::new(registry.clone()));

    let good = beacon(&registry, 1, PcbExtensions::none());
    let mut corrupted = beacon(&registry, 2, PcbExtensions::none());
    corrupted.entries.to_mut()[0].static_info.link_bandwidth = Bandwidth::from_gbps(100_000);

    gateway.receive(good, IfId(1), SimTime::ZERO).unwrap();
    assert!(gateway.receive(corrupted, IfId(1), SimTime::ZERO).is_err());
    assert_eq!(gateway.stats().accepted, 1);
    assert_eq!(gateway.stats().rejected, 1);
    assert_eq!(gateway.db().len(), 1);
}

/// An on-demand algorithm whose fetched code does not match the hash pinned in the signed
/// PCB is refused; a subsequent legitimate algorithm still runs.
#[test]
fn hash_mismatched_on_demand_algorithm_is_refused_then_recovery_works() {
    let registry = KeyRegistry::with_ases(3, 16);
    let store = SharedAlgorithmStore::new();
    let node = local_as();

    // The "attacker" publishes module A but pins the hash of module B in the beacon.
    let module_a = irec_irvm::programs::lowest_latency(5).to_module_bytes();
    store.publish(AsId(1), AlgorithmId(1), module_a);
    let bogus = AlgorithmRef::new(AlgorithmId(1), irec_crypto::sha256(b"not the module"));
    let bad_beacon = beacon(&registry, 1, PcbExtensions::none().with_algorithm(bogus));

    let rac = Rac::new_on_demand(RacConfig::on_demand_rac("od"), Arc::new(store.clone())).unwrap();
    let key = BatchKey {
        origin: AsId(1),
        group: InterfaceGroupId::DEFAULT,
        target: None,
    };
    let stored = Arc::new(irec_core::StoredBeacon {
        pcb: bad_beacon,
        ingress: IfId(1),
        received_at: SimTime::ZERO,
    });
    let err = rac
        .process_candidates(&key, &[stored], &node, &[IfId(1)])
        .unwrap_err();
    assert_eq!(err.category(), "verification");
    assert_eq!(rac.cached_algorithms(), 0);

    // A correctly referenced algorithm from another origin still works afterwards.
    let good_ref = store.publish(
        AsId(2),
        AlgorithmId(2),
        irec_irvm::programs::lowest_latency(5).to_module_bytes(),
    );
    let good_beacon = beacon(&registry, 2, PcbExtensions::none().with_algorithm(good_ref));
    let key2 = BatchKey {
        origin: AsId(2),
        group: InterfaceGroupId::DEFAULT,
        target: None,
    };
    let stored = Arc::new(irec_core::StoredBeacon {
        pcb: good_beacon,
        ingress: IfId(2),
        received_at: SimTime::ZERO,
    });
    let (outputs, _) = rac
        .process_candidates(&key2, &[stored], &node, &[IfId(1)])
        .unwrap();
    assert_eq!(outputs.len(), 1);
    assert_eq!(rac.cached_algorithms(), 1);
}

/// A hostile on-demand algorithm (infinite loop) is contained by the IRVM fuel limit: the
/// control plane as a whole keeps running and other criteria keep discovering paths.
#[test]
fn non_terminating_on_demand_algorithm_is_sandboxed_and_does_not_break_beaconing() {
    let topology = Arc::new(figure1_topology());
    let mut sim = Simulation::new(Arc::clone(&topology), SimulationConfig::default(), |_| {
        NodeConfig::default()
            .with_policy(PropagationPolicy::All)
            .with_racs(vec![
                RacConfig::static_rac("1SP", "1SP"),
                RacConfig::on_demand_rac("on-demand"),
            ])
    })
    .unwrap();

    // The destination ships a non-terminating algorithm. Program validation cannot reject it
    // (it is syntactically fine); the sandbox must contain it at run time.
    let hostile = Program::new("spin-forever", 20, vec![Instruction::Jump(0)]);
    let reference = sim
        .node(figure1::DST)
        .unwrap()
        .publish_algorithm(AlgorithmId(66), &hostile);
    let dst_interfaces: Vec<IfId> = topology
        .as_node(figure1::DST)
        .unwrap()
        .interfaces
        .keys()
        .copied()
        .collect();
    sim.node_mut(figure1::DST).unwrap().add_origination(
        OriginationSpec::plain(dst_interfaces)
            .with_extensions(PcbExtensions::none().with_algorithm(reference)),
    );

    sim.run_rounds(6)
        .expect("rounds survive the hostile algorithm");

    // The hostile algorithm selected nothing (every candidate evaluation hits the fuel
    // limit and is treated as rejected), but ordinary criteria are unaffected.
    let src = sim.node(figure1::SRC).unwrap();
    assert!(src
        .path_service()
        .paths_to_by(figure1::DST, "on-demand")
        .is_empty());
    assert!(!src
        .path_service()
        .paths_to_by(figure1::DST, "1SP")
        .is_empty());
    assert!((sim.connectivity() - 1.0).abs() < f64::EPSILON);
}

/// Regression test: control-plane messages addressed to an AS that has no node (here: one
/// taken offline by failure injection) must be accounted as **dropped**, for both PCB
/// deliveries and pull-based returns. They used to be silently discarded, leaving
/// `delivered + dropped` short of the messages actually sent.
#[test]
fn messages_to_an_offline_as_are_counted_as_dropped() {
    // Both simulations are identical (and the simulator is deterministic); only the second
    // takes Src offline before the last round.
    let build = || {
        let topology = Arc::new(figure1_topology());
        let mut sim = Simulation::new(Arc::clone(&topology), SimulationConfig::default(), |_| {
            NodeConfig::default()
                .with_policy(PropagationPolicy::All)
                .with_racs(vec![
                    RacConfig::static_rac("1SP", "1SP").with_pull_based(true)
                ])
        })
        .unwrap();
        // Src originates a pull-based beacon towards Dst every round, so Dst keeps
        // producing pull returns addressed to Src.
        let src_interfaces: Vec<IfId> = topology
            .as_node(figure1::SRC)
            .unwrap()
            .interfaces
            .keys()
            .copied()
            .collect();
        sim.node_mut(figure1::SRC).unwrap().add_origination(
            OriginationSpec::plain(src_interfaces)
                .with_extensions(irec_pcb::PcbExtensions::none().with_target(figure1::DST)),
        );
        sim
    };

    let mut control = build();
    control.run_rounds(4).unwrap();

    let mut injected = build();
    injected.run_rounds(3).unwrap();
    // Src goes offline. The next round's beacons addressed to it — and the pull return Dst
    // keeps producing for the pull-based beacon still in its ingress database — have no
    // receiver and must be accounted as dropped (they used to vanish without a trace; the
    // control run even counts *more* drops at Src's gateway, which rejects looped-back
    // beacons, so the strict inequality below fails without the accounting fix).
    assert!(injected.remove_node(figure1::SRC).is_some());
    assert!(injected.remove_node(figure1::SRC).is_none());
    let delivered_before = injected.delivered_messages();
    injected.run_rounds(1).unwrap();

    assert!(
        injected.dropped_messages() > control.dropped_messages(),
        "missing-receiver drops must be accounted: injected {} vs control {}",
        injected.dropped_messages(),
        control.dropped_messages()
    );
    // The remaining nodes keep exchanging beacons normally.
    assert!(injected.delivered_messages() > delivered_before);
}

/// Regression test for mid-run node re-addition: after remove → add → re-beacon, the
/// rejoined AS must regain full reachability (its neighbors' propagation-dedup marks for
/// the interfaces facing it are reset, or steady-state selections would never be re-sent
/// to it), and the offline window's losses must be accounted.
#[test]
fn node_flap_restores_reachability_with_exact_accounting() {
    let node_config = move |_| {
        NodeConfig::default()
            .with_policy(PropagationPolicy::All)
            .with_racs(vec![RacConfig::static_rac("5SP", "5SP")])
    };
    let mut sim = Simulation::new(
        Arc::new(figure1_topology()),
        SimulationConfig::default(),
        node_config,
    )
    .unwrap();
    sim.run_rounds(4).unwrap();
    assert!((sim.connectivity() - 1.0).abs() < f64::EPSILON);
    assert!(sim.remove_node(figure1::X).is_some());
    sim.run_rounds(2).unwrap();
    assert_eq!(sim.live_ases().len(), 4, "X must be gone");
    sim.add_node(figure1::X, node_config(figure1::X)).unwrap();
    assert!(
        sim.add_node(figure1::X, node_config(figure1::X)).is_err(),
        "re-adding a live node must be rejected"
    );
    sim.run_rounds(4).unwrap();
    assert_eq!(sim.pending_events(), 0, "rounds must drain the event queue");
    assert!(
        (sim.connectivity() - 1.0).abs() < f64::EPSILON,
        "re-beaconing must restore full reachability, got connectivity {}",
        sim.connectivity()
    );
    assert!(
        sim.delivery_stats().dropped_no_node > 0,
        "the offline window must drop messages"
    );
}

/// Regression test pinning the drop-counter split: a message emitted over a downed link
/// endpoint counts as `dropped_link_down` even when its addressee is *also* gone (the
/// downed-link check precedes the missing-node check in every delivery path), while
/// messages to the missing node over up links count as `dropped_no_node`.
#[test]
fn link_down_and_node_removal_split_drop_counters_deterministically() {
    let mut sim = Simulation::new(
        Arc::new(figure1_topology()),
        SimulationConfig::default(),
        |_| {
            NodeConfig::default()
                .with_policy(PropagationPolicy::All)
                .with_racs(vec![RacConfig::static_rac("5SP", "5SP")])
        },
    )
    .unwrap();
    sim.run_rounds(3).unwrap();
    // Down the Src–X link *and* remove X: Src's beacons over the downed link hit the
    // link-down arm; beacons to X over its other (up) links hit the no-node arm.
    let src_x = sim
        .topology()
        .link_at(figure1::SRC, IfId(1))
        .expect("Src's first interface is the Src-X link")
        .id;
    sim.set_link_down(src_x).unwrap();
    assert!(sim.remove_node(figure1::X).is_some());
    sim.run_rounds(2).unwrap();
    let stats = sim.delivery_stats();
    assert!(
        stats.dropped_link_down > 0,
        "the downed link must account drops"
    );
    assert!(
        stats.dropped_no_node > 0,
        "the removed node must account drops"
    );
}

/// Expired beacons are evicted from the databases and do not linger in path computation.
#[test]
fn expired_beacons_are_evicted_from_the_control_plane() {
    let registry = KeyRegistry::with_ases(3, 16);
    let mut gateway = IngressGateway::new(AsId(99), Verifier::new(registry.clone()));
    // Valid for 6 hours.
    let pcb = beacon(&registry, 1, PcbExtensions::none());
    gateway.receive(pcb, IfId(1), SimTime::ZERO).unwrap();
    assert_eq!(gateway.db().len(), 1);
    // After 7 simulated hours the eviction pass removes it.
    let later = SimTime::ZERO + SimDuration::from_hours(7);
    let evicted = gateway.db().evict_expired(later, SimDuration::ZERO);
    assert_eq!(evicted, 1);
    assert_eq!(gateway.db().len(), 0);
}
