"""The full Fig. 2 control workflow, verified end-to-end via the event log.

The paper's architecture diagram numbers five interactions:

1. the SDNFV Application's service graphs / placement guide the SDN
   controller,
2–3. the controller configures host flow tables,
4. the NFV orchestrator instantiates NFs,
5. NFs push information back up (via the NF Manager) so the application
   can adapt.

One test drives all five in order and asserts the recorded timeline.
"""


from repro.control import ControlPlane, NfvOrchestrator
from repro.core import EXIT, HierarchySnapshot, SdnfvApp, ServiceGraph
from repro.dataplane import NfvHost, UserMessage
from repro.metrics import EventLog
from repro.net import Packet
from repro.nfs import NoOpNf
from repro.nfs.base import NetworkFunction
from repro.dataplane.actions import Verdict
from repro.sim import MS, S


class AlarmAfterN(NetworkFunction):
    """Raises a UserMessage alarm after N packets (step 5 driver)."""

    read_only = True

    def __init__(self, service_id, alarm_after=3):
        super().__init__(service_id)
        self.alarm_after = alarm_after
        self._alarmed = False

    def process(self, packet, ctx):
        if not self._alarmed and self.packets_seen >= self.alarm_after:
            self._alarmed = True
            ctx.send_message(UserMessage(
                sender_service=self.service_id, key="load_alarm",
                value={"packets": self.packets_seen}))
        return Verdict.default()


def test_fig2_five_step_workflow(sim, flow):
    controller = ControlPlane(sim)
    orchestrator = NfvOrchestrator(sim)
    app = SdnfvApp(sim, controller=controller, orchestrator=orchestrator)
    log = EventLog(sim)
    app.attach_event_log(log)
    host = NfvHost(sim, name="h0", controller=controller)
    app.register_host(host)

    # Step 4 (first round): the orchestrator brings up the detector NF.
    ready = orchestrator.launch_nf(host, lambda: AlarmAfterN("detector"),
                                   mode="standby_process")
    sim.run(ready)

    # Step 1: the application deploys the graph...
    graph = ServiceGraph("fig2")
    graph.add_service("detector", read_only=True)
    graph.add_service("helper")
    graph.add_edge("detector", EXIT, default=True)
    graph.add_edge("detector", "helper")
    graph.add_edge("helper", EXIT, default=True)
    graph.set_entry("detector")
    app.deploy(graph)

    # ...which reaches the host through the controller (steps 2-3).
    sim.run(until=sim.now + controller.idle_lookup_ns + 1 * MS)
    assert len(host.flow_table) == 3

    # Step 5 wiring: the alarm triggers a helper VM boot (step 4 again).
    app.on_message("load_alarm",
                   lambda host_name, message: app.launch_nf(
                       host_name, lambda: NoOpNf("helper"),
                       mode="standby_process"))

    # Data plane traffic drives the alarm.
    out = []
    host.port("eth1").on_egress = out.append
    for _ in range(5):
        host.inject("eth0", Packet(flow=flow, size=128))
    sim.run(until=sim.now + 1 * S)

    assert len(out) == 5
    assert "helper" in host.manager.services()

    # The recorded timeline has every step, in causal order.
    categories = [event.category for event in log.events]
    assert "vm_launch" in categories            # step 4
    assert "deploy" in categories               # step 1
    assert "rule_install" in categories         # steps 2-3
    assert "nf_message_up" in categories        # step 5
    deploy_at = next(e.timestamp_ns for e in log.events
                     if e.category == "deploy")
    first_rule_at = next(e.timestamp_ns for e in log.events
                         if e.category == "rule_install")
    alarm_at = next(e.timestamp_ns for e in log.events
                    if e.category == "nf_message_up")
    helper_launch = [e for e in log.events
                     if e.category == "vm_launch"
                     and e.get("service") == "helper"]
    assert deploy_at <= first_rule_at <= alarm_at
    assert helper_launch and helper_launch[0].timestamp_ns >= alarm_at

    # The hierarchy snapshot renders the final state.
    snapshot = HierarchySnapshot.gather(app)
    text = snapshot.format()
    assert "h0" in text and "svc detector" in text
    assert "controller" in text
