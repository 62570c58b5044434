"""A request's wire body is encoded once per instance, never per equality."""

import json

from repro.client import ServiceClient
from repro.service.schema import GraphRef, JobRequest, WireConfig


def make_request(**config) -> JobRequest:
    return JobRequest(
        graph=GraphRef("rmat-s10", seed=7), nprocs=8, model="ncl",
        config=WireConfig(machine="zero-latency", **config),
    )


def recording_client(sent: list) -> ServiceClient:
    """A client whose transport records each body and answers a stub."""
    client = ServiceClient("http://127.0.0.1:9")  # never connects

    def request(method, path, body=None, content_type="application/json"):
        sent.append(body)
        return 200, b'{"job_id": "j", "state": "done", "cache": "hit"}', content_type

    client._request = request
    return client


def test_one_instance_is_encoded_once(monkeypatch):
    req = make_request()
    calls = []
    to_json = JobRequest.to_json

    def counting(self):
        calls.append(self)
        return to_json(self)

    monkeypatch.setattr(JobRequest, "to_json", counting)
    sent: list = []
    client = recording_client(sent)
    for _ in range(3):
        client.submit(req)
    assert len(calls) == 1
    assert sent == [req.to_bytes()] * 3
    assert sent[0] == to_json(req).encode()
    # not a wire field: it neither travels nor takes part in equality
    assert "_body" not in req.to_dict()
    assert req == make_request()


def test_equal_requests_with_differently_typed_fields_send_their_own_bytes():
    as_int, as_bool = make_request(eager_reject=1), make_request(eager_reject=True)
    assert as_int == as_bool
    sent: list = []
    client = recording_client(sent)
    client.submit(as_int)
    client.submit(as_bool)
    assert [json.loads(b)["config"]["eager_reject"] for b in sent] == [1, True]
    assert sent == [as_int.to_json().encode(), as_bool.to_json().encode()]
    assert sent[0] != sent[1]
