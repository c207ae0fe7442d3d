package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runAsQuestEnv makes the test binary act as the quest command, so a test
// can run the real main in a child process and observe its exit status.
const runAsQuestEnv = "QUEST_MAIN_TEST_RUN_AS_QUEST"

func TestMain(m *testing.M) {
	if os.Getenv(runAsQuestEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runQuest runs main with args in a child process and returns its exit
// code and stderr.
func runQuest(t *testing.T, args ...string) (int, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), runAsQuestEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatal(err)
	return 0, ""
}

func TestBlockSizeAboveMaxExitsOne(t *testing.T) {
	code, stderr := runQuest(t, "-algo", "tfim", "-n", "4", "-blocksize", "5")
	if code != 1 {
		t.Fatalf("quest -blocksize 5 exited %d, want 1; stderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "block size 5") {
		t.Errorf("stderr does not name the rejected block size:\n%s", stderr)
	}
}
