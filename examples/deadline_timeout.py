"""Query deadlines end-to-end: budgets on the wire, typed timeouts in the API.

The decision procedures behind the service are super-polynomial in the worst
case, so a production deployment bounds each query instead of trusting it:

1. attach ``deadline_ms`` to a request (wire version 2) — the kernels check
   the budget cooperatively at every unit of search work;
2. a request that finishes in time answers normally: the deadline changes
   *when* a query may fail, never *what* it answers;
3. a request that blows its budget comes back as a typed ``Timeout`` error
   result, and the typed client API raises
   :class:`~repro.errors.QueryTimeoutError` — co-batched requests are
   unaffected;
4. the same budget machinery is reusable directly via
   :func:`~repro.deadline.deadline_scope` around any kernel call.

The slow query is simulated with the deterministic fault-injection harness
(:mod:`repro.service.faults`) — the same seeded plans the chaos tests use.

Run with ``python examples/deadline_timeout.py`` (needs ``src`` on the path,
e.g. ``PYTHONPATH=src``).
"""

from repro.deadline import deadline_scope
from repro.errors import DeadlineExceeded, QueryTimeoutError
from repro.lattice.quotient import finite_counterexample
from repro.service import (
    Fault,
    FaultPlan,
    Session,
    answer_for,
    clear_fault_plan,
    counterexample_request,
    implies_request,
    install_fault_plan,
)


def main() -> None:
    session = Session(["A = A*B", "B = B*C"])

    print("== 1. A budgeted request that finishes in time ==")
    request = implies_request("A = A*C", id="fast", deadline_ms=5_000)
    result = session.execute(request)
    print(f"  {request.id}: ok={result.ok} value={result.value} (budget 5000 ms)")

    print("\n== 2. A slow query blows its budget ==")
    # Simulate a pathological counterexample search with a deterministic
    # fault plan: 10 s of injected latency against a 150 ms budget.
    plan = FaultPlan(
        seed=11, faults=(Fault(kind="delay", request_id="slow", delay_ms=10_000.0),)
    )
    install_fault_plan(plan)
    try:
        slow = counterexample_request("A = A*D", id="slow", deadline_ms=150)
        fast = implies_request("C = C*A", id="neighbor")
        timed_out, neighbor = session.execute_many([slow, fast])
        print(f"  {slow.id}: ok={timed_out.ok} error={timed_out.error}")
        print(f"  {fast.id}: ok={neighbor.ok} (co-batched request unaffected)")

        print("\n== 3. The typed API raises QueryTimeoutError ==")
        try:
            answer_for(timed_out)
        except QueryTimeoutError as exc:
            print(f"  QueryTimeoutError: {exc}")
    finally:
        clear_fault_plan()

    print("\n== 4. deadline_scope around a kernel call directly ==")
    with deadline_scope(0.0):  # an already-expired budget
        try:
            finite_counterexample(["A = A*B"], "C = C*D")
        except DeadlineExceeded as exc:
            print(f"  DeadlineExceeded: {exc}")


if __name__ == "__main__":
    main()
