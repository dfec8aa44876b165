import gapgauge


def test_every_export_resolves():
    missing = [name for name in gapgauge.__all__ if not hasattr(gapgauge, name)]
    assert missing == []
    assert len(set(gapgauge.__all__)) == len(gapgauge.__all__)
