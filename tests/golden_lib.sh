# Helpers shared by the golden-digest checks (check_default_engine.sh,
# check_repro.sh); source it, do not run it. A golden file holds one
# row per cell: its key (one or more space-separated fields) and then
# the sha256 of each of the cell's output files.

sha() { sha256sum "$1" | cut -d' ' -f1; }

# golden_row <golden> <key>: the digests that follow "<key> " on the
# key's row.
golden_row()
{
    awk -v k="$2 " 'index($0, k) == 1 { print substr($0, length(k) + 1) }' \
        "$1"
}

# compare <golden> <key> <file>...: the files' sha256s, in order, must
# equal the key's row; nonzero (with a message) on any mismatch.
compare()
{
    _golden=$1
    _key=$2
    shift 2
    _want=$(golden_row "$_golden" "$_key")
    [ -n "$_want" ] || { echo "FAIL: no golden row for $_key"; return 1; }
    _got=""
    for _f in "$@"; do
        _got="$_got${_got:+ }$(sha "$_f")"
    done
    [ "$_got" = "$_want" ] && return 0
    echo "FAIL: $_key: sha256 '$_got' != golden '$_want'"
    return 1
}

# expect_flip_detected <file> <offset> <command>...: the canary. With
# one byte of <file> at <offset> overwritten, <command> (a comparison
# that passes on the clean file) must fail; exits the script if it
# does not. The clean file is restored afterwards.
expect_flip_detected()
{
    _file=$1
    _offset=$2
    shift 2
    cp "$_file" "$_file.clean"
    printf '\377' | dd of="$_file" bs=1 seek="$_offset" count=1 \
        conv=notrunc 2>/dev/null
    if "$@" > /dev/null; then
        echo "FAIL: a flipped byte in $(basename "$_file") was not detected"
        exit 1
    fi
    mv "$_file.clean" "$_file"
}
