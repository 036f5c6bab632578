"""Suite-wide pytest configuration."""


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running scenario or experiment test")
