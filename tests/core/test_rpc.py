"""Tests for the RDMA-RPC control-plane framework."""

from repro.core.rpc import RpcClient, RpcError, RpcServer
from repro.hardware import AZURE_HPC
from repro.net import Fabric, Placement
from repro.sim import Environment, US


def make_pair(hops="rack"):
    env = Environment()
    fabric = Fabric(env, AZURE_HPC)
    client_ep = fabric.add_endpoint("rpc-client", Placement(0, 0))
    placements = {"rack": Placement(0, 0), "cluster": Placement(0, 1),
                  "dc": Placement(1, 0)}
    server_ep = fabric.add_endpoint("rpc-server", placements[hops])
    server = RpcServer(env, AZURE_HPC, server_ep)
    client = RpcClient(env, AZURE_HPC, client_ep)
    return env, client, server


def run_call(env, event):
    def proc(env):
        return (yield event)

    return env.run_process(proc(env))


class TestRpc:
    def test_call_returns_handler_result(self):
        env, client, server = make_pair()
        server.register("add", lambda payload: payload[0] + payload[1])
        result = run_call(env, client.call(server, "add", (2, 40)))
        assert result == 42
        assert server.calls_served == 1
        assert client.calls_sent == 1

    def test_call_latency_is_rpc_class(self):
        env, client, server = make_pair()
        server.register("ping", lambda _p: "pong")

        def proc(env):
            start = env.now
            yield client.call(server, "ping")
            return env.now - start

        elapsed = env.run_process(proc(env))
        # Network RTT (~2.9us) + service (5us) + message processing.
        assert 7 * US < elapsed < 15 * US

    def test_latency_grows_with_distance(self):
        times = {}
        for hops in ("rack", "cluster", "dc"):
            env, client, server = make_pair(hops=hops)
            server.register("ping", lambda _p: None)

            def proc(env):
                start = env.now
                yield client.call(server, "ping")
                return env.now - start

            times[hops] = env.run_process(proc(env))
        assert times["rack"] < times["cluster"] < times["dc"]

    def test_unknown_method_fails(self):
        env, client, server = make_pair()

        def proc(env):
            try:
                yield client.call(server, "nope")
            except RpcError as exc:
                return str(exc)
            return None

        assert "no such method" in env.run_process(proc(env))

    def test_handler_exception_travels_back(self):
        env, client, server = make_pair()

        def broken(_payload):
            raise ValueError("kaboom")

        server.register("broken", broken)

        def proc(env):
            try:
                yield client.call(server, "broken")
            except RpcError as exc:
                return str(exc)
            return None

        assert "kaboom" in env.run_process(proc(env))

    def test_dead_server_fails_the_call(self):
        env, client, server = make_pair()
        server.register("ping", lambda _p: None)
        server.endpoint.fail()

        def proc(env):
            try:
                yield client.call(server, "ping")
            except RpcError as exc:
                return str(exc)
            return None

        assert "down" in env.run_process(proc(env))

    def test_concurrent_calls_interleave(self):
        env, client, server = make_pair()
        server.register("echo", lambda p: p)

        def proc(env, calls):
            start = env.now
            events = [client.call(server, "echo", i) for i in range(calls)]
            results = yield env.all_of(events)
            return results, env.now - start

        _, single = env.run_process(proc(env, 1))
        results, elapsed = env.run_process(proc(env, 5))
        assert results == [0, 1, 2, 3, 4]
        # Calls overlap on the wire; total is far less than 5 serial RPCs.
        assert elapsed < 2 * single
