#!/bin/sh
# Runs a command in a session of its own, and fails if any process of that
# session still runs 5 s after the command exits; otherwise exits with the
# command's status. Enrollment forks a trainer process, so this is how a
# run shows that it left none behind:
#
#     tools/own_session.sh python -m pytest -q
#
# The command's standard output is its own; the pids of processes left
# running go to standard error.
setsid "$@" &
session=$!
status=0
wait "$session" || status=$?
sleep 5
if pgrep -s "$session" >&2; then
  echo "$*: left the processes above running" >&2
  exit 1
fi
exit "$status"
