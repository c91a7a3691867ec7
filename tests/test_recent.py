from nmlogic._recent import Recent


def held(table):
    """The keys ``table`` keeps, oldest first."""
    assert table._values.keys() == table._weights.keys()
    return list(table._weights)


def test_add_returns_its_value_and_get_reads_it():
    table = Recent(entries=3, nbytes=100)
    value = object()
    assert table.add("a", value, 10) is value
    assert table.get("a") is value
    assert table.get("b") is None


def test_the_oldest_entry_goes_first_at_the_entry_bound():
    table = Recent(entries=3, nbytes=100)
    for key in "abc":
        table.add(key, key.upper(), 1)
    table.add("d", "D", 1)
    assert held(table) == ["b", "c", "d"]
    assert table.get("a") is None


def test_the_oldest_entries_go_first_at_the_byte_bound():
    table = Recent(entries=10, nbytes=100)
    for key, weight in (("a", 40), ("b", 30), ("c", 30)):
        table.add(key, key, weight)
    assert held(table) == ["a", "b", "c"]
    table.add("d", "d", 1)  # 101 bytes: only the oldest goes
    assert held(table) == ["b", "c", "d"]
    table.add("e", "e", 70)  # b and c go, oldest first, until 71 bytes fit
    assert held(table) == ["d", "e"]
    assert sum(table._weights.values()) == 71


def test_re_adding_a_key_makes_it_newest_and_replaces_its_weight():
    table = Recent(entries=3, nbytes=100)
    for key in "abc":
        table.add(key, key, 10)
    table.add("a", "A", 80)
    assert held(table) == ["b", "c", "a"]
    assert table.get("a") == "A" and table._weights["a"] == 80
    # Three entries fill the table, so d evicts the oldest, b, and a stays.
    table.add("d", "d", 1)
    assert held(table) == ["c", "a", "d"]
    # At its new, lighter weight a leaves room for e beside d; at 80 it would not.
    table.add("a", "a", 5)
    assert held(table) == ["c", "d", "a"]
    table.add("e", "e", 80)
    assert held(table) == ["d", "a", "e"]


def test_an_overweight_value_is_returned_not_kept_and_evicts_nothing():
    table = Recent(entries=3, nbytes=100)
    for key in "ab":
        table.add(key, key, 50)
    value = object()
    assert table.add("big", value, 101) is value
    assert table.get("big") is None
    assert held(table) == ["a", "b"]
    # Over the bound under a key already kept: the old entry stays as it was.
    assert table.add("a", value, 101) is value
    assert table.get("a") == "a" and held(table) == ["a", "b"]
