import gnmqsim


def test_every_export_resolves():
    # the benchmark's tracer calls getattr on every name in the export table
    for name in gnmqsim.__all__:
        assert getattr(gnmqsim, name) is not None, name
