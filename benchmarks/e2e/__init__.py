"""End-to-end benchmark: a real ``repro serve`` process driven over TCP.

One harness, four named workloads, every claim measured through the
socket.  See ``README.md`` in this directory; ``BENCHMARK.json`` at the
repository root is the contract a driver runs it by.
"""
